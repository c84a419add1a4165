#include "netsim/latency.h"

#include <algorithm>
#include <cmath>

namespace dohperf::netsim {
namespace {

/// Jitter-free delay of `bytes` over the direction's term.
double expected_ms(const OneWayTerm& t, std::size_t bytes) {
  const double serialization_ms =
      static_cast<double>(bytes) / 1024.0 * kPerKbMs;
  return std::max(kMinOneWayMs, t.fixed_ms + serialization_ms);
}

}  // namespace

OneWayTerm one_way_term(const Site& a, const Site& b) {
  const double dist_km = geo::distance_km(a.position, b.position);
  // Paths inherit the worse indirectness of their two endpoints, softened
  // geometrically: a well-connected cloud PoP partially compensates for a
  // poorly-connected eyeball network, but not fully.
  const double inflation =
      std::sqrt(std::max(1.0, a.route_inflation) *
                std::max(1.0, b.route_inflation));
  const double propagation_ms = dist_km / kKmPerMs * inflation;
  // Summed in the order of the full delay expression in expected_ms, so
  // adding the serialisation cost later rounds exactly as one sum would.
  return {propagation_ms + a.lastmile_ms + b.lastmile_ms,
          std::hypot(a.jitter_sigma, b.jitter_sigma)};
}

double expected_one_way_ms(const Site& a, const Site& b, std::size_t bytes) {
  return expected_ms(one_way_term(a, b), bytes);
}

Duration one_way(const OneWayTerm& t, std::size_t bytes, Rng& rng) {
  const double jittered = rng.lognormal_median(expected_ms(t, bytes), t.sigma);
  return from_ms(std::max(kMinOneWayMs, jittered));
}

}  // namespace dohperf::netsim
