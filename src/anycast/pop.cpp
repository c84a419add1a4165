#include "anycast/pop.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dohperf::anycast {

Pop make_pop(const geo::City& city) {
  const geo::Country* country = geo::find_country(city.country_iso2);
  if (country == nullptr) {
    throw std::invalid_argument("city " + std::string(city.name) +
                                " has unknown country " +
                                std::string(city.country_iso2));
  }
  Pop pop;
  pop.city = std::string(city.name);
  pop.country_iso2 = std::string(city.country_iso2);
  pop.position = city.position;
  pop.unit = geo::unit_vector(city.position);
  pop.region = country->region;
  return pop;
}

namespace {

/// The chord² below which a PoP is ranked by distance_km, given the n-th
/// best chord². Chord² is monotone in true distance, but both it and
/// distance_km carry rounding error (relative ~1e-15, absolute ~1e-16 in
/// h-units, most of it from cos(lat) near the poles). Keeping every PoP
/// within a relative 1e-9 plus absolute 1e-12 of the n-th best chord² is
/// orders of magnitude wider than either error, so no PoP that
/// distance_km ranks in the first n can be cut.
double chord_cutoff(double nth_best_chord2) {
  constexpr double kRelativeMargin = 1e-9;
  constexpr double kAbsoluteMargin = 1e-12;
  return nth_best_chord2 * (1.0 + kRelativeMargin) + kAbsoluteMargin;
}

}  // namespace

RankedPop nearest_pop(std::span<const Pop> pops, const geo::LatLon& p) {
  const geo::UnitVector u = geo::unit_vector(p);
  double best = std::numeric_limits<double>::infinity();
  for (const Pop& pop : pops) {
    best = std::min(best, geo::chord_squared(u, pop.unit));
  }
  const double cutoff = chord_cutoff(best);
  RankedPop nearest{0, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < pops.size(); ++i) {
    if (geo::chord_squared(u, pops[i].unit) > cutoff) continue;
    // Strictly nearer only, so an equal distance keeps the lower index.
    const double km = geo::distance_km(p, pops[i].position);
    if (km < nearest.km) nearest = {i, km};
  }
  return nearest;
}

std::vector<RankedPop> nearest_pops(std::span<const Pop> pops,
                                    const geo::LatLon& p, std::size_t n) {
  n = std::min(n, pops.size());
  if (n == 0) return {};

  const geo::UnitVector u = geo::unit_vector(p);
  // The n smallest chord² values, ascending (n is small on every hot
  // caller, so insertion beats a full sort).
  std::vector<double> best;
  best.reserve(n);
  for (const Pop& pop : pops) {
    const double chord2 = geo::chord_squared(u, pop.unit);
    if (best.size() == n) {
      if (chord2 >= best.back()) continue;
      best.pop_back();
    }
    best.insert(std::upper_bound(best.begin(), best.end(), chord2), chord2);
  }
  const double cutoff = chord_cutoff(best.back());

  std::vector<RankedPop> ranked;
  for (std::size_t i = 0; i < pops.size(); ++i) {
    if (geo::chord_squared(u, pops[i].unit) <= cutoff) {
      ranked.push_back({i, geo::distance_km(p, pops[i].position)});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPop& a, const RankedPop& b) {
              return a.km != b.km ? a.km < b.km : a.index < b.index;
            });
  ranked.resize(n);
  return ranked;
}

}  // namespace dohperf::anycast
