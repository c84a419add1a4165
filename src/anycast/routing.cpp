#include "anycast/routing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "geo/country.h"

namespace dohperf::anycast {
namespace {

constexpr std::size_t kRegionCount = 11;

}  // namespace

geo::LatLon region_centroid(geo::Region region) {
  // Spherical mean of country centroids, weighted equally; adequate for
  // hub placement.
  double x = 0, y = 0, z = 0;
  int n = 0;
  for (const geo::Country& c : geo::world_table()) {
    if (c.region != region) continue;
    const double lat = c.centroid.lat * std::numbers::pi / 180.0;
    const double lon = c.centroid.lon * std::numbers::pi / 180.0;
    x += std::cos(lat) * std::cos(lon);
    y += std::cos(lat) * std::sin(lon);
    z += std::sin(lat);
    ++n;
  }
  if (n == 0) return {};
  x /= n;
  y /= n;
  z /= n;
  const double lat = std::atan2(z, std::hypot(x, y));
  const double lon = std::atan2(y, x);
  return {lat * 180.0 / std::numbers::pi, lon * 180.0 / std::numbers::pi};
}

AnycastRouter::AnycastRouter(std::span<const Pop> pops, RoutingParams params)
    : pops_(pops), params_(params) {
  assert(!pops.empty());
  assert(params_.p_global() >= -1e-9);
  hub_by_region_.resize(kRegionCount);
  for (std::size_t r = 0; r < kRegionCount; ++r) {
    const auto centroid = region_centroid(static_cast<geo::Region>(r));
    hub_by_region_[r] = nearest(centroid);
  }
}

std::size_t AnycastRouter::region_hub(geo::Region region) const {
  return hub_by_region_[static_cast<std::size_t>(region)];
}

std::size_t AnycastRouter::select(const geo::LatLon& where,
                                  geo::Region region,
                                  netsim::Rng& rng) const {
  const double u = rng.uniform();

  if (u < params_.p_nearest) return nearest(where);

  if (u < params_.p_nearest + params_.p_neighborhood) {
    // A "detour": uniformly one of the k nearest *non-optimal* PoPs
    // (BGP prefers a peer one metro over).
    const std::size_t k =
        std::min(params_.neighborhood_k, pops_.size() - 1);
    if (k == 0) return nearest(where);
    const auto order = nearest_pops(pops_, where, k + 1);
    const auto pick = 1 + static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(k) - 1));
    return order[pick].index;
  }

  if (u < params_.p_nearest + params_.p_neighborhood + params_.p_region_hub) {
    return region_hub(region);
  }

  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pops_.size()) - 1));
}

}  // namespace dohperf::anycast
