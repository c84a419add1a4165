// Geographic coordinates and geodesic distance utilities.
//
// The paper reasons about client/PoP proximity in statute miles (e.g.
// "26% of Cloudflare clients could be switched to a PoP at least 1,000
// miles closer"), so distances are exposed in both kilometres and miles.
#pragma once

#include <cmath>
#include <compare>
#include <iosfwd>

namespace dohperf::geo {

/// Mean Earth radius used for great-circle distance (IUGG value).
inline constexpr double kEarthRadiusKm = 6371.0088;
/// Statute miles per kilometre.
inline constexpr double kMilesPerKm = 0.621371192;

/// A point on the Earth's surface in decimal degrees.
///
/// Latitude is in [-90, 90], longitude in [-180, 180]. The type has no
/// invariant-enforcing constructor because world-table literals initialise
/// it in aggregate form; `is_valid()` checks the ranges.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  [[nodiscard]] bool is_valid() const {
    return lat >= -90.0 && lat <= 90.0 && lon >= -180.0 && lon <= 180.0;
  }

  friend bool operator==(const LatLon&, const LatLon&) = default;
};

std::ostream& operator<<(std::ostream& os, const LatLon& p);

/// Great-circle distance between two points, in kilometres (haversine).
[[nodiscard]] double distance_km(const LatLon& a, const LatLon& b);

/// Great-circle distance in statute miles.
[[nodiscard]] double distance_miles(const LatLon& a, const LatLon& b);

/// A point as an Earth-centred unit vector (x towards 0°N 0°E, z towards
/// the north pole).
struct UnitVector {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend bool operator==(const UnitVector&, const UnitVector&) = default;
};

[[nodiscard]] UnitVector unit_vector(const LatLon& p);

/// Squared chord length between two points on the unit sphere. In real
/// arithmetic it equals 4·h, where h is the haversine term of
/// distance_km, so it orders points by distance with three multiplies
/// and no trigonometry (up to rounding; see anycast::nearest_pops).
[[nodiscard]] inline double chord_squared(const UnitVector& a,
                                          const UnitVector& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

[[nodiscard]] inline double km_to_miles(double km) { return km * kMilesPerKm; }
[[nodiscard]] inline double miles_to_km(double mi) { return mi / kMilesPerKm; }

/// Initial great-circle bearing from `a` to `b` in degrees [0, 360).
[[nodiscard]] double initial_bearing_deg(const LatLon& a, const LatLon& b);

/// Destination point after travelling `km` from `origin` on `bearing_deg`.
[[nodiscard]] LatLon destination(const LatLon& origin, double bearing_deg,
                                 double km);

}  // namespace dohperf::geo
