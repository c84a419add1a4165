// CSV output for figure data series.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace dohperf::report
