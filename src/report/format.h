// Allocation-free text shared by the report renderers: numbers formatted
// into an inline buffer, OpenMetrics label-value escaping, and the number
// rule that reads numbers back. Every renderer formats a number or
// escapes a label through here, so each output spells a value exactly one
// way, and every number dohperf reads from text is read one way.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <optional>
#include <string>
#include <string_view>

#include "netsim/time.h"
#include "obs/metrics.h"

namespace dohperf::report {

/// A number rendered into an inline buffer. It converts to
/// std::string_view, so it can be passed straight to CsvWriter::add_row
/// or appended to a document; nothing is allocated.
class NumText {
 public:
  /// Decimal text of an integer, as std::to_string spells it.
  template <std::integral T>
  explicit NumText(T value)
      : len_(static_cast<unsigned char>(
            std::to_chars(buf_, buf_ + sizeof buf_, value).ptr - buf_)) {}

  /// The text printf("%.*g", precision, value) produces. std::to_chars
  /// with chars_format::general and that precision is specified as
  /// exactly that conversion, signed zero, infinities and NaN included.
  [[nodiscard]] static NumText general(double value, int precision);
  /// general(value, 6): the form the report renderers write.
  [[nodiscard]] static NumText g6(double v) { return general(v, 6); }
  /// general(value, 17), printf's "%.17g": the round-trip form, which
  /// read_number<double> reads back to the same double.
  [[nodiscard]] static NumText g17(double v) { return general(v, 17); }

  [[nodiscard]] std::string_view view() const { return {buf_, len_}; }
  operator std::string_view() const { return view(); }

 private:
  NumText() = default;

  char buf_[32];  // "-1.2345678901234567e-308" and any 64-bit integer fit
  unsigned char len_ = 0;
};

/// NumText::g6 of `hist`'s p50, p90 and p99, found in one pass. Each is
/// a bucket edge (LatencyHistogram::quantile_edges), and the text of
/// every edge is formatted once, on first use.
[[nodiscard]] std::array<std::string_view, 3> quantile_texts(
    const obs::LatencyHistogram& hist);

/// Appends `value` as an OpenMetrics label value: backslash, double quote
/// and newline are escaped, every other byte is copied verbatim.
void append_label_value(std::string& out, std::string_view value);

/// The number rule: how dohperf reads every number it takes from text (a
/// spec value, a CSV cell, a flag or an environment variable), and the
/// inverse of NumText. std::from_chars must consume the whole of `text`
/// and the value must fit T; a double must also be finite. So there is
/// no whitespace, no hex, no "inf" or "nan", no '+', and no sign at all
/// on an unsigned T. Any other text yields std::nullopt. Callers check
/// ranges such as "> 0" on the value this returns, once it is known to
/// fit.
template <typename T>
  requires std::integral<T> || std::same_as<T, double>
[[nodiscard]] std::optional<T> read_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::same_as<T, double>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// `ms` milliseconds as a netsim::Duration, rounded to the nearest
/// microsecond (halves away from zero); std::nullopt when that count does
/// not fit the Duration's 64-bit tick count.
[[nodiscard]] std::optional<netsim::Duration> duration_from_ms(double ms);

}  // namespace dohperf::report
