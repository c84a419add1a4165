// Exit nodes: the residential vantage points of the proxy network.
#pragma once

#include <cstdint>
#include <string>

#include "geo/country.h"
#include "geo/geolocation.h"
#include "netsim/latency.h"
#include "resolver/recursive.h"

namespace dohperf::proxy {

/// One HolaVPN-style residential exit node.
///
/// `advertised_iso2` is what the proxy operator believes (derived from its
/// IP database) and is what a measurement client can request;
/// `true_iso2` is where the node actually sits. The two differ for a
/// small fraction of nodes, which the campaign detects through the
/// Maxmind-like geolocation service and discards (paper: 0.88%).
struct ExitNode {
  std::uint64_t id = 0;
  std::string advertised_iso2;
  std::string true_iso2;
  /// The region anycast routes the node by: its true country's, set once
  /// when the node is enrolled. Providers route by where a client is, not
  /// by what the proxy operator believes.
  geo::Region anycast_region = geo::Region::kNorthAmerica;
  netsim::Site site;
  geo::NetPrefix prefix = 0;
  /// The node's OS-default Do53 resolver (validated in paper Section 4.3).
  resolver::RecursiveResolver* default_resolver = nullptr;
};

/// Exit-node processing delay for forwarding a tunnelled message (ms);
/// consumer-grade hardware, so larger than a server's.
inline constexpr double kExitForwardingMs = 0.8;

}  // namespace dohperf::proxy
