// Anycast PoP-selection policies.
//
// BGP anycast does not reliably deliver clients to their geographically
// nearest PoP (paper Section 7, citing Li et al.). We model selection as a
// mixture: exact-nearest with probability p_nearest, a uniform draw among
// the k nearest ("neighbourhood" — small detours from peering topology),
// the client's continental hub (routes collapsing onto a regional transit
// hub), or a uniform global draw (pathological BGP paths). The mixture
// weights are per-provider, calibrated against Figure 6 of the paper.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "anycast/pop.h"
#include "netsim/random.h"

namespace dohperf::anycast {

/// Mixture weights for PoP selection; must sum to <= 1, with the
/// remainder assigned to the global-random component.
struct RoutingParams {
  double p_nearest = 1.0;       ///< Exact nearest PoP.
  /// A small detour: uniform among the `neighborhood_k` nearest PoPs
  /// *excluding* the optimum.
  double p_neighborhood = 0.0;
  std::size_t neighborhood_k = 4;
  double p_region_hub = 0.0;    ///< The provider's hub for the client's region.

  /// Remaining probability mass: uniform over the whole catalog.
  [[nodiscard]] double p_global() const {
    return 1.0 - p_nearest - p_neighborhood - p_region_hub;
  }
};

/// Stateless selection engine over a fixed catalog.
class AnycastRouter {
 public:
  /// Precomputes regional hubs (the catalog PoP nearest to each region's
  /// population centroid). `pops` must stay alive and unchanged.
  AnycastRouter(std::span<const Pop> pops, RoutingParams params);

  /// Selects the PoP index serving a client at `where` in `region`.
  [[nodiscard]] std::size_t select(const geo::LatLon& where,
                                   geo::Region region,
                                   netsim::Rng& rng) const;

  /// Exact-nearest index (used for "potential improvement" analysis).
  [[nodiscard]] std::size_t nearest(const geo::LatLon& where) const {
    return nearest_pop(pops_, where).index;
  }

  [[nodiscard]] const RoutingParams& params() const { return params_; }
  [[nodiscard]] std::span<const Pop> pops() const { return pops_; }
  /// The hub PoP index for `region`.
  [[nodiscard]] std::size_t region_hub(geo::Region region) const;

 private:
  std::span<const Pop> pops_;
  RoutingParams params_;
  std::vector<std::size_t> hub_by_region_;
};

/// Population centroid of all world-table countries in `region`.
[[nodiscard]] geo::LatLon region_centroid(geo::Region region);

}  // namespace dohperf::anycast
