#include "report/csv.h"

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
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;     // inside a quoted cell
  bool had_cell = false;   // current row has at least one (possibly empty) cell
  std::size_t i = 0;

  const auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
    had_cell = false;
  };
  const auto end_row = [&] {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
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
            return std::nullopt;
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
        if (!cell.empty()) return std::nullopt;  // quote mid-cell
        quoted = true;
        had_cell = true;
        ++i;
        break;
      case ',':
        end_cell();
        had_cell = true;  // a comma promises another cell
        ++i;
        break;
      case '\r':
        ++i;
        if (i < text.size() && text[i] == '\n') ++i;
        end_row();
        break;
      case '\n':
        ++i;
        end_row();
        break;
      default:
        cell.push_back(c);
        had_cell = true;
        ++i;
    }
  }
  if (quoted) return std::nullopt;  // unterminated quoted cell
  if (had_cell || !cell.empty() || !row.empty()) end_row();
  return rows;
}

}  // namespace dohperf::report
