// BrightData-style timing headers.
//
// The Super Proxy reports exit-node timing in two response headers the
// measurement methodology depends on (paper Section 3.2):
//   x-luminati-tun-timeline: "dns=<ms> connect=<ms>"
//       dns     = t3 + t4 (exit node's local resolution of the target)
//       connect = t5 + t6 (exit node's TCP handshake with the target)
//   x-luminati-timeline: "auth=<ms> init=<ms> select=<ms> vld=<ms>"
//       summed, this is t_BrightData (Super Proxy + exit node overhead).
// Values are fractional milliseconds.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace dohperf::proxy {

inline constexpr std::string_view kTunTimelineHeader =
    "x-luminati-tun-timeline";
inline constexpr std::string_view kTimelineHeader = "x-luminati-timeline";

/// Parsed x-luminati-tun-timeline payload.
struct TunTimeline {
  double dns_ms = 0.0;      ///< t3 + t4.
  double connect_ms = 0.0;  ///< t5 + t6.
};

/// Parsed x-luminati-timeline payload (BrightData-internal overheads).
struct BrightDataTimeline {
  double auth_ms = 0.0;    ///< Client authentication at the Super Proxy.
  double init_ms = 0.0;    ///< Super Proxy initialisation.
  double select_ms = 0.0;  ///< Exit-node selection and setup.
  double vld_ms = 0.0;     ///< Requested-domain validity check.

  [[nodiscard]] double total_ms() const {
    return auth_ms + init_ms + select_ms + vld_ms;
  }
};

/// Append the header payloads to `out`. Values are written as printf's
/// "%.3f" writes them in the "C" locale, whatever the locale.
void append_tun_timeline(std::string& out, const TunTimeline& t);
void append_timeline(std::string& out, const BrightDataTimeline& t);

/// Parses header payloads; nullopt on malformed input (unknown key,
/// missing '=', non-numeric value).
[[nodiscard]] std::optional<TunTimeline> parse_tun_timeline(
    std::string_view text);
[[nodiscard]] std::optional<BrightDataTimeline> parse_timeline(
    std::string_view text);

}  // namespace dohperf::proxy
