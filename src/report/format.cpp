#include "report/format.h"

namespace dohperf::report {

NumText NumText::g6(double value) {
  NumText text;
  text.len_ = static_cast<unsigned char>(
      std::to_chars(text.buf_, text.buf_ + sizeof text.buf_, value,
                    std::chars_format::general, 6)
          .ptr -
      text.buf_);
  return text;
}

void append_label_value(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

}  // namespace dohperf::report
