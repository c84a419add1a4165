#include "report/csv.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/trace_export.h"

namespace dohperf::report {
namespace {

/// Appends one cell, quoted only when it holds a comma, a quote, CR or
/// LF. The four characters are tested in a single scan of the cell.
void append_cell(std::string& out, std::string_view cell) {
  bool needs_quoting = false;
  for (const char c : cell) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) {
    out += cell;
    return;
  }
  out.push_back('"');
  for (const char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

/// Appends one line: the cells, comma-separated, then LF.
template <typename Cells>
void append_line(std::string& out, const Cells& cells) {
  bool first = true;
  for (const std::string_view cell : cells) {
    if (!first) out.push_back(',');
    first = false;
    append_cell(out, cell);
  }
  out.push_back('\n');
}

/// What `cell` should have been when the number rule does not read it as
/// a `type`; nullptr when it does.
const char* misfit(CsvType type, std::string_view cell) {
  switch (type) {
    case CsvType::kText: return nullptr;
    case CsvType::kInt:
      return read_number<int>(cell) ? nullptr : "an integer that fits an int";
    case CsvType::kUint32:
      return read_number<std::uint32_t>(cell) ? nullptr
                                              : "an integer from 0 to 2^32-1";
    case CsvType::kUint64:
      return read_number<std::uint64_t>(cell) ? nullptr
                                              : "an integer from 0 to 2^64-1";
    case CsvType::kDouble:
      return read_number<double>(cell) ? nullptr : "a finite number";
  }
  return nullptr;
}

/// Reads the row that starts at text[i] into `row`, leaving `i` after its
/// line end (or at the end of `text`). False on a malformed row: an
/// unterminated quoted cell, or bytes between a closing quote and the
/// next separator.
bool read_row(std::string_view text, std::size_t& i,
              std::vector<std::string>& row) {
  row.clear();
  std::string cell;
  bool quoted = false;  // inside a quoted cell
  const auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };

  while (i < text.size()) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          i += 2;
        } else {
          quoted = false;
          ++i;
          // Only a separator (or end of input) may follow a closing quote.
          if (i < text.size() && text[i] != ',' && text[i] != '\n' &&
              text[i] != '\r') {
            return false;
          }
        }
      } else {
        cell.push_back(c);
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!cell.empty()) return false;  // quote mid-cell
        quoted = true;
        ++i;
        break;
      case ',':
        end_cell();
        ++i;
        break;
      case '\r':
        ++i;
        if (i < text.size() && text[i] == '\n') ++i;
        end_cell();
        return true;
      case '\n':
        ++i;
        end_cell();
        return true;
      default:
        cell.push_back(c);
        ++i;
    }
  }
  if (quoted) return false;  // unterminated quoted cell
  end_cell();
  return true;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> columns) {
  append_line(text_, columns);
}

void CsvWriter::add_row(std::initializer_list<std::string_view> cells) {
  append_line(text_, cells);
  ++rows_;
}

void CsvWriter::write_file(const std::string& path) const {
  obs::write_text_file(path, text_);
}

std::optional<std::vector<std::vector<std::string>>> parse_csv(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < text.size();) {
    if (!read_row(text, i, rows.emplace_back())) return std::nullopt;
  }
  return rows;
}

CsvReader::CsvReader(std::string text, std::string file,
                     std::initializer_list<CsvColumn> columns)
    : text_(std::move(text)), file_(std::move(file)), columns_(columns) {
  while (pos_ < text_.size() && text_[pos_] == '#') {
    const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
    comments_.push_back(text_.substr(pos_, eol - pos_));
    pos_ = std::min(eol + 1, text_.size());
  }
  line_ = comments_.size() + 1;
  if (!read_next_row()) fail_at({}, "no header row");
  header_ = std::move(row_);
  for (auto it = header_.begin(); it != header_.end(); ++it) {
    if (std::find(header_.begin(), it, *it) != it) {
      fail_at(*it, "duplicate column name");
    }
  }
  for (const CsvColumn& column : columns_) {
    const auto it = std::find(header_.begin(), header_.end(), column.name);
    if (it == header_.end()) fail_at(column.name, "missing from the header");
    index_.push_back(static_cast<std::size_t>(it - header_.begin()));
  }
}

CsvReader CsvReader::open(const std::string& path,
                          std::initializer_list<CsvColumn> columns) {
  std::optional<std::string> text = obs::read_text_file(path);
  if (!text) throw std::runtime_error(path + ": cannot read file");
  return CsvReader(std::move(*text), path, columns);
}

bool CsvReader::next() {
  ++line_;
  if (!read_next_row()) return false;
  // A short row is named by its first missing column, a long one by the
  // position of its first extra cell.
  if (const std::size_t cells = row_.size(); cells != header_.size()) {
    fail_at(cells < header_.size() ? header_[cells]
                                   : std::to_string(header_.size() + 1),
            "the row has " + std::to_string(cells) + " cells, the header " +
                std::to_string(header_.size()));
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const std::string_view cell = text(c);
    const char* expected = misfit(columns_[c].type, cell);
    if (expected != nullptr && !(columns_[c].blank_ok && cell.empty())) {
      fail(c, std::string("expected ") + expected + ", got \"" +
                  std::string(cell) + "\"");
    }
  }
  return true;
}

bool CsvReader::read_next_row() {
  if (pos_ == text_.size()) return false;
  if (!read_row(text_, pos_, row_)) {
    fail_at({}, "malformed CSV (an unterminated quoted cell or text after "
                "a closing quote)");
  }
  return true;
}

void CsvReader::fail(std::size_t column, const std::string& message) const {
  fail_at(columns_[column].name, message);
}

void CsvReader::fail_at(std::string_view column,
                        const std::string& message) const {
  std::string where = file_ + ": row " + std::to_string(line_);
  if (!column.empty()) {
    where += ", column ";
    where += column;
  }
  throw std::runtime_error(where + ": " + message);
}

}  // namespace dohperf::report
