// Wide-area latency model.
//
// One-way delay between two sites decomposes, as in standard WAN models,
// into geodesic propagation inflated by routing indirectness, per-endpoint
// access ("last-mile") delay, a small size-dependent serialisation cost,
// and multiplicative lognormal jitter. Route inflation and last-mile delay
// are where country-level infrastructure quality enters the simulation
// (see world::site_for_country), which is what makes the paper's
// explanatory covariates (bandwidth, AS counts) predictive.
#pragma once

#include <cstddef>

#include "geo/coordinates.h"
#include "netsim/random.h"
#include "netsim/time.h"

namespace dohperf::netsim {

/// A network-attached location.
struct Site {
  geo::LatLon position;
  /// One-way access-network delay contributed by this endpoint (ms).
  double lastmile_ms = 1.0;
  /// Multiplier (>= 1) on great-circle propagation delay for paths that
  /// touch this endpoint; models circuitous routing where transit options
  /// are scarce.
  double route_inflation = 1.3;
  /// Lognormal sigma of this endpoint's delay jitter.
  double jitter_sigma = 0.08;
  /// Probability that a datagram crossing this endpoint is lost and must
  /// be retried by the application (UDP DNS has no transport recovery).
  double loss_rate = 0.0;

  friend bool operator==(const Site&, const Site&) = default;
};

/// Tunables for the delay computation.
struct LatencyConfig {
  /// Effective signal speed in fibre, km per ms (~2/3 c).
  double km_per_ms = 200.0;
  /// Serialisation/queuing cost per kilobyte of payload (ms).
  double per_kb_ms = 0.05;
  /// Floor for any one-way delay (ms).
  double min_one_way_ms = 0.15;
};

/// The size-independent part of one direction's delay: propagation plus
/// both endpoints' last-mile delay, and the jitter sigma. A routed path
/// computes it once per direction (see Path) instead of once per message.
struct OneWayTerm {
  double fixed_ms = 0.0;
  double sigma = 0.0;
};

/// Computes one-way delays between sites.
class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(LatencyConfig cfg) : cfg_(cfg) {}

  /// The a -> b term every delay below is computed from.
  [[nodiscard]] OneWayTerm term(const Site& a, const Site& b) const;

  /// Deterministic (jitter-free) one-way delay in ms.
  [[nodiscard]] double expected_one_way_ms(const Site& a, const Site& b,
                                           std::size_t bytes) const {
    return expected_ms(term(a, b), bytes);
  }

  /// Samples a one-way delay with jitter from the direction's term.
  [[nodiscard]] Duration one_way(const OneWayTerm& t, std::size_t bytes,
                                 Rng& rng) const;

  /// Deterministic round-trip estimate (2x expected one-way, same bytes
  /// each direction).
  [[nodiscard]] double expected_rtt_ms(const Site& a, const Site& b,
                                       std::size_t bytes = 64) const;

  [[nodiscard]] const LatencyConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] double expected_ms(const OneWayTerm& t,
                                   std::size_t bytes) const;

  LatencyConfig cfg_{};
};

}  // namespace dohperf::netsim
