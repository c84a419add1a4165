// Allocation-free text shared by the report renderers: numbers formatted
// into an inline buffer, and OpenMetrics label-value escaping. Every
// renderer formats a number or escapes a label through here, so each
// output spells a value exactly one way.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

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

  /// The text printf("%.6g", value) produces. std::to_chars with
  /// chars_format::general and precision 6 is specified as exactly that
  /// conversion, signed zero, infinities and NaN included.
  [[nodiscard]] static NumText g6(double value);

  [[nodiscard]] std::string_view view() const { return {buf_, len_}; }
  operator std::string_view() const { return view(); }

 private:
  NumText() = default;

  char buf_[32];  // "-1.23457e-308" and any 64-bit integer fit
  unsigned char len_ = 0;
};

/// Appends `value` as an OpenMetrics label value: backslash, double quote
/// and newline are escaped, every other byte is copied verbatim.
void append_label_value(std::string& out, std::string_view value);

}  // namespace dohperf::report
