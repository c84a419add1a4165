// Points-of-presence for anycast DoH services.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/cities.h"
#include "geo/coordinates.h"
#include "geo/country.h"

namespace dohperf::anycast {

/// One provider point-of-presence, hosted in a metro area.
struct Pop {
  std::string city;           ///< Metro name (from geo::city_table).
  std::string country_iso2;   ///< Host country.
  geo::LatLon position;
  geo::UnitVector unit;  ///< geo::unit_vector(position), for nearest_pop(s).
  geo::Region region;

  friend bool operator==(const Pop&, const Pop&) = default;
};

/// Builds a Pop from a city-table entry. The host country must exist in
/// the world table (checked; throws std::invalid_argument otherwise).
[[nodiscard]] Pop make_pop(const geo::City& city);

/// A PoP ranked by its distance from a query point.
struct RankedPop {
  std::size_t index = 0;  ///< Position in the catalog span.
  double km = 0.0;        ///< geo::distance_km(p, pop.position), exactly.

  friend bool operator==(const RankedPop&, const RankedPop&) = default;
};

/// The min(n, pops.size()) PoPs nearest to `p`, nearest first; equal
/// distances rank the lower index first. The result is exactly the head
/// of a full geo::distance_km sort of the catalog, but only PoPs whose
/// chord length comes within a rounding margin of the n-th best are
/// ranked by distance_km.
[[nodiscard]] std::vector<RankedPop> nearest_pops(std::span<const Pop> pops,
                                                  const geo::LatLon& p,
                                                  std::size_t n);

/// nearest_pops(pops, p, 1).front() without allocating: the same chord²
/// prefilter, distance_km ranking and lower-index tie rule, in two passes
/// over the catalog. `pops` must not be empty.
[[nodiscard]] RankedPop nearest_pop(std::span<const Pop> pops,
                                    const geo::LatLon& p);

}  // namespace dohperf::anycast
