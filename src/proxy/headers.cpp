#include "proxy/headers.h"

#include <charconv>

namespace dohperf::proxy {
namespace {

/// Appends "<key>=<v>" with three decimals.
void append_ms(std::string& out, std::string_view key, double v) {
  // Room for "%.3f" of any double: sign, 309 integer digits, point, 3.
  char buf[320];
  char* const end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 3)
          .ptr;
  out += key;
  out += '=';
  out.append(buf, end);
}

/// Calls `take(key, value)` for each space-separated "key=value" token of
/// `text` in order; false as soon as a token is malformed (missing '=',
/// empty key, non-numeric value) or `take` rejects it.
template <typename Take>
bool for_each_field(std::string_view text, Take take) {
  for (;;) {
    while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
    if (text.empty()) return true;
    const std::size_t space = text.find(' ');
    const std::string_view token = text.substr(0, space);
    text.remove_prefix(space == std::string_view::npos ? text.size()
                                                       : space + 1);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    const std::string_view value_str = token.substr(eq + 1);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(
        value_str.data(), value_str.data() + value_str.size(), value);
    if (ec != std::errc() || ptr != value_str.data() + value_str.size()) {
      return false;
    }
    if (!take(token.substr(0, eq), value)) return false;
  }
}

}  // namespace

void append_tun_timeline(std::string& out, const TunTimeline& t) {
  append_ms(out, "dns", t.dns_ms);
  append_ms(out, " connect", t.connect_ms);
}

void append_timeline(std::string& out, const BrightDataTimeline& t) {
  append_ms(out, "auth", t.auth_ms);
  append_ms(out, " init", t.init_ms);
  append_ms(out, " select", t.select_ms);
  append_ms(out, " vld", t.vld_ms);
}

std::optional<TunTimeline> parse_tun_timeline(std::string_view text) {
  TunTimeline t;
  bool have_dns = false, have_connect = false;
  const bool ok = for_each_field(text, [&](std::string_view key, double v) {
    if (key == "dns") {
      t.dns_ms = v;
      have_dns = true;
    } else if (key == "connect") {
      t.connect_ms = v;
      have_connect = true;
    } else {
      return false;
    }
    return true;
  });
  if (!ok || !have_dns || !have_connect) return std::nullopt;
  return t;
}

std::optional<BrightDataTimeline> parse_timeline(std::string_view text) {
  BrightDataTimeline t;
  const bool ok = for_each_field(text, [&t](std::string_view key, double v) {
    if (key == "auth") {
      t.auth_ms = v;
    } else if (key == "init") {
      t.init_ms = v;
    } else if (key == "select") {
      t.select_ms = v;
    } else if (key == "vld") {
      t.vld_ms = v;
    } else {
      return false;
    }
    return true;
  });
  if (!ok) return std::nullopt;
  return t;
}

}  // namespace dohperf::proxy
