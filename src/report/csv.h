// CSV output for figure data series, and the strict reader for the CSV
// files dohperf reads back.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/format.h"

namespace dohperf::report {

/// Renders RFC 4180-style CSV as rows are added: each row is escaped
/// (cells containing commas, quotes, CR or LF are quoted, with quotes
/// doubled) and appended to one text buffer, so no row is staged.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> columns);

  /// Appends one row. Cells are copied into the buffer before this
  /// returns, so they may view stack-formatted numbers (NumText) or
  /// temporaries.
  void add_row(std::initializer_list<std::string_view> cells);

  /// The document so far (header line included). Called on a temporary
  /// writer, it hands the buffer over instead of copying it.
  [[nodiscard]] std::string str() const& { return text_; }
  [[nodiscard]] std::string str() && { return std::move(text_); }

  /// Writes to `path`; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  [[nodiscard]] std::size_t row_count() const { return rows_; }

 private:
  std::string text_;
  std::size_t rows_ = 0;
};

/// Parses RFC 4180-style CSV (the dialect CsvWriter emits, including
/// quoted cells with embedded commas, doubled quotes, and newlines)
/// into rows of cells, header row included. Returns std::nullopt on a
/// malformed document: an unterminated quoted cell, or bytes between a
/// closing quote and the next separator. Every CsvWriter output
/// round-trips: parse_csv(w.str()) reproduces the columns and rows.
[[nodiscard]] std::optional<std::vector<std::vector<std::string>>> parse_csv(
    std::string_view text);

/// What every cell of a CsvReader column must hold.
enum class CsvType : unsigned char {
  kText,    ///< Any text.
  kInt,     ///< read_number<int>.
  kUint32,  ///< read_number<std::uint32_t>.
  kUint64,  ///< read_number<std::uint64_t>.
  kDouble,  ///< read_number<double>: finite.
};

/// One column a loader reads, found by name in the header.
struct CsvColumn {
  std::string name;
  CsvType type = CsvType::kText;
  bool blank_ok = false;  ///< A numeric cell may also be empty.
};

/// The one reader for the CSV files dohperf writes and reads back, one
/// row at a time, with parse_csv's RFC 4180 scan. Leading '#' lines
/// (provenance stamps) are set aside as text first. Exactly one header row
/// follows them, its column names distinct; every later row has exactly as
/// many cells as the header. Each declared column must be in the header,
/// and every cell of a numeric column must follow the number rule
/// (read_number). The first defect throws std::runtime_error with one
/// diagnostic naming the file and, where they apply, the row and the
/// column. Rows are numbered from the top of the file, comment lines and
/// header included, so row N is line N unless a quoted cell spans lines.
class CsvReader {
 public:
  /// Reads the '#' lines and the header of `text`; `file` names it in
  /// diagnostics. `columns` are the columns the loader reads; accessors
  /// take their index in this list.
  CsvReader(std::string text, std::string file,
            std::initializer_list<CsvColumn> columns);

  /// The same for the file at `path`; an unreadable file throws as well.
  [[nodiscard]] static CsvReader open(
      const std::string& path, std::initializer_list<CsvColumn> columns);

  /// The leading '#' lines, without their line ends.
  [[nodiscard]] const std::vector<std::string>& comments() const {
    return comments_;
  }

  /// Reads and checks the next data row; false once every row is read.
  [[nodiscard]] bool next();

  /// The current row's cell in declared column `column`.
  [[nodiscard]] std::string_view text(std::size_t column) const {
    return row_[index_[column]];
  }

  /// The same cell read through the number rule.
  template <typename T>
  [[nodiscard]] T number(std::size_t column) const {
    const std::string_view cell = text(column);
    if (const std::optional<T> value = read_number<T>(cell)) return *value;
    fail(column, "expected a number, got \"" + std::string(cell) + "\"");
  }

  /// Throws "<file>: row N, column <name>: <message>" for the current row.
  [[noreturn]] void fail(std::size_t column, const std::string& message) const;

 private:
  /// The same naming the column `column` (none when empty).
  [[noreturn]] void fail_at(std::string_view column,
                            const std::string& message) const;
  /// Reads the row at pos_ into row_; false at the end of the text.
  bool read_next_row();

  std::string text_;
  std::size_t pos_ = 0;   ///< Where the next row starts in text_.
  std::size_t line_ = 0;  ///< The current row's number.
  std::string file_;
  std::vector<std::string> comments_;
  std::vector<CsvColumn> columns_;
  std::vector<std::size_t> index_;  ///< Declared column -> header cell.
  std::vector<std::string> header_;
  std::vector<std::string> row_;  ///< The current row.
};

}  // namespace dohperf::report
