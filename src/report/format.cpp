#include "report/format.h"

#include <vector>

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

std::array<std::string_view, 3> quantile_texts(
    const obs::LatencyHistogram& hist) {
  using obs::LatencyHistogram;
  static const std::vector<NumText> kEdgeTexts = [] {
    std::vector<NumText> texts;
    texts.reserve(LatencyHistogram::kBucketCount);
    for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      texts.push_back(NumText::g6(LatencyHistogram::bucket_lower_ms(i)));
    }
    return texts;
  }();
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
  int edges[3];
  hist.quantile_edges(kQuantiles, edges);
  return {kEdgeTexts[edges[0]].view(), kEdgeTexts[edges[1]].view(),
          kEdgeTexts[edges[2]].view()};
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
