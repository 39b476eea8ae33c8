#include "geo/distance.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace skyex::geo {

namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;

}  // namespace

double HaversineMeters(const GeoPoint& a, const GeoPoint& b) {
  if (!a.valid || !b.valid) return -1.0;
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

double EquirectangularMeters(const GeoPoint& a, const GeoPoint& b) {
  if (!a.valid || !b.valid) return -1.0;
  const double mean_lat = 0.5 * (a.lat + b.lat) * kDegToRad;
  const double x = (b.lon - a.lon) * kDegToRad * std::cos(mean_lat);
  const double y = (b.lat - a.lat) * kDegToRad;
  return kEarthRadiusMeters * std::sqrt(x * x + y * y);
}

double MetersToLatDegrees(double meters) {
  return meters / (kEarthRadiusMeters * kDegToRad);
}

double MetersToLonDegrees(double meters, double at_lat) {
  const double scale = std::cos(at_lat * kDegToRad);
  if (scale <= 1e-9) return 360.0;
  return meters / (kEarthRadiusMeters * kDegToRad * scale);
}

bool CircleIntersectsBox(const GeoPoint& center, double radius_m,
                         const BoundingBox& box) {
  if (!center.valid) return false;
  if (radius_m < 0.0) radius_m = 0.0;
  // Inflate the box by the radius in degrees. Latitude converts
  // uniformly. Longitude uses the largest |lat| the comparison can see
  // (the center's or either box edge's): EquirectangularMeters scales
  // dlon by cos(mean_lat), and |mean| <= max(|center.lat|, |q.lat|) for
  // any q in the box, so cos(mean) >= cos(at) and the true degree reach
  // of the radius never exceeds MetersToLonDegrees(radius, at). Near a
  // pole that reach widens without cap as cos(at) vanishes, up to the
  // 360° MetersToLonDegrees returns there.
  const double dlat = MetersToLatDegrees(radius_m);
  const double at = std::max(
      {std::fabs(center.lat), std::fabs(box.min_lat), std::fabs(box.max_lat)});
  const double dlon = MetersToLonDegrees(radius_m, at);
  constexpr double kSlackDeg = 1e-9;  // absorbs the degree conversions' FP
  return center.lat >= box.min_lat - dlat - kSlackDeg &&
         center.lat <= box.max_lat + dlat + kSlackDeg &&
         center.lon >= box.min_lon - dlon - kSlackDeg &&
         center.lon <= box.max_lon + dlon + kSlackDeg;
}

}  // namespace skyex::geo
