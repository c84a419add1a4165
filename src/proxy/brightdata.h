// The BrightData-like proxy overlay: Super Proxy locations, the exit-node
// registry, and country-targeted exit selection.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "anycast/pop.h"
#include "netsim/latency.h"
#include "netsim/random.h"
#include "proxy/exit_node.h"

namespace dohperf::proxy {

/// The 11 countries hosting Super Proxy servers (paper Section 3.5). In
/// these countries BrightData resolves DNS at the Super Proxy instead of
/// the exit node, invalidating Do53 measurements through the tunnel.
inline constexpr std::array<std::string_view, 11> kSuperProxyCountries{
    "US", "CA", "GB", "IN", "JP", "KR", "SG", "DE", "NL", "FR", "AU"};

[[nodiscard]] bool resolves_dns_at_super_proxy(std::string_view iso2);

/// A Super Proxy server location.
struct SuperProxyLocation {
  std::string iso2;
  netsim::Site site;
};

/// The Super Proxy network plus the pool of enrolled exit nodes.
class BrightDataNetwork {
 public:
  /// Builds the 11 Super Proxy locations from the city table.
  BrightDataNetwork();

  /// Enrols an exit node. Returns its stable id.
  std::uint64_t enroll(ExitNode node);

  /// Picks a random exit node advertised in `iso2`; nullptr if none.
  [[nodiscard]] const ExitNode* pick_exit(std::string_view iso2,
                                          netsim::Rng& rng) const;

  /// Exit node by id; nullptr if unknown.
  [[nodiscard]] const ExitNode* find(std::uint64_t id) const;

  /// All exit nodes advertised in `iso2` (possibly empty).
  [[nodiscard]] std::span<const std::uint64_t> exits_in(
      std::string_view iso2) const;

  /// The Super Proxy location nearest to `p` (BrightData routes sessions
  /// through the closest Super Proxy).
  [[nodiscard]] const SuperProxyLocation& nearest_super_proxy(
      const geo::LatLon& p) const;

  [[nodiscard]] std::span<const SuperProxyLocation> super_proxies() const {
    return locations_;
  }
  /// The Super Proxy metros as a PoP catalog, parallel to super_proxies().
  [[nodiscard]] std::span<const anycast::Pop> super_proxy_pops() const {
    return pops_;
  }
  [[nodiscard]] std::size_t exit_count() const { return exits_.size(); }

  /// Samples the per-session BrightData processing overheads the Super
  /// Proxy reports in x-luminati-timeline.
  struct OverheadSample {
    double auth_ms;
    double init_ms;
    double select_ms;
    double vld_ms;
    [[nodiscard]] double total_ms() const {
      return auth_ms + init_ms + select_ms + vld_ms;
    }
  };
  [[nodiscard]] static OverheadSample sample_overheads(netsim::Rng& rng);

 private:
  std::vector<SuperProxyLocation> locations_;
  std::vector<anycast::Pop> pops_;
  std::vector<ExitNode> exits_;
  std::unordered_map<std::string, std::vector<std::uint64_t>> by_country_;
};

}  // namespace dohperf::proxy
