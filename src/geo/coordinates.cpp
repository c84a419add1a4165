#include "geo/coordinates.h"

#include <algorithm>
#include <numbers>
#include <ostream>

namespace dohperf::geo {
namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;
constexpr double kRadToDeg = 180.0 / std::numbers::pi;

}  // namespace

std::ostream& operator<<(std::ostream& os, const LatLon& p) {
  return os << '(' << p.lat << ", " << p.lon << ')';
}

double distance_km(const LatLon& a, const LatLon& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;

  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat +
                   std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  // Clamp to guard against floating-point drift pushing h past 1.
  const double c = 2.0 * std::asin(std::sqrt(std::clamp(h, 0.0, 1.0)));
  return kEarthRadiusKm * c;
}

double distance_miles(const LatLon& a, const LatLon& b) {
  return km_to_miles(distance_km(a, b));
}

UnitVector unit_vector(const LatLon& p) {
  const double lat = p.lat * kDegToRad;
  const double lon = p.lon * kDegToRad;
  const double cos_lat = std::cos(lat);
  return {cos_lat * std::cos(lon), cos_lat * std::sin(lon), std::sin(lat)};
}

double initial_bearing_deg(const LatLon& a, const LatLon& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;

  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  double bearing = std::atan2(y, x) * kRadToDeg;
  if (bearing < 0.0) bearing += 360.0;
  return bearing;
}

LatLon destination(const LatLon& origin, double bearing_deg, double km) {
  const double delta = km / kEarthRadiusKm;
  const double theta = bearing_deg * kDegToRad;
  const double lat1 = origin.lat * kDegToRad;
  const double lon1 = origin.lon * kDegToRad;

  const double lat2 =
      std::asin(std::sin(lat1) * std::cos(delta) +
                std::cos(lat1) * std::sin(delta) * std::cos(theta));
  const double lon2 =
      lon1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(lat1),
                        std::cos(delta) - std::sin(lat1) * std::sin(lat2));

  double lon_deg = lon2 * kRadToDeg;
  // Normalise longitude to [-180, 180].
  while (lon_deg > 180.0) lon_deg -= 360.0;
  while (lon_deg < -180.0) lon_deg += 360.0;
  return LatLon{lat2 * kRadToDeg, lon_deg};
}

}  // namespace dohperf::geo
