#include "report/format.h"

namespace dohperf::report {

NumText NumText::general(double value, int precision) {
  NumText text;
  text.len_ = static_cast<unsigned char>(
      std::to_chars(text.buf_, text.buf_ + sizeof text.buf_, value,
                    std::chars_format::general, precision)
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

std::optional<netsim::Duration> duration_from_ms(double ms) {
  const double us = std::round(ms * 1000.0);
  // 2^63 is exact in a double; every rounded count below it in magnitude
  // converts without overflow (NaN fails the comparison too).
  if (!(std::fabs(us) < 0x1p63)) return std::nullopt;
  return netsim::Duration(static_cast<std::int64_t>(us));
}

}  // namespace dohperf::report
