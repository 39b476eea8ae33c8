#ifndef SKYEX_GEO_DISTANCE_H_
#define SKYEX_GEO_DISTANCE_H_

#include "geo/point.h"

namespace skyex::geo {

inline constexpr double kEarthRadiusMeters = 6371000.0;

/// Great-circle distance in meters (haversine formula). Either point
/// invalid → returns a negative sentinel (-1).
double HaversineMeters(const GeoPoint& a, const GeoPoint& b);

/// Fast equirectangular approximation of the distance in meters; accurate
/// to well under 1% for the sub-kilometer distances blocking works with.
double EquirectangularMeters(const GeoPoint& a, const GeoPoint& b);

/// Converts a distance in meters at the given latitude to approximate
/// degree deltas (used by the quadtree to translate radii to cell sizes).
double MetersToLatDegrees(double meters);
double MetersToLonDegrees(double meters, double at_lat);

/// Conservative test: true whenever some point of `box` lies within
/// `radius_m` of `center` under EquirectangularMeters — may also return
/// true for boxes slightly outside the radius (the box is inflated by
/// the radius in degrees at the least favorable latitude), never false
/// for a box that actually contains an in-radius point, at any latitude
/// up to the poles. The shard router uses this to decide which quadtree
/// cells can hold a candidate; conservatism means a pruned cell provably
/// holds no candidate.
/// An invalid center intersects nothing (returns false).
bool CircleIntersectsBox(const GeoPoint& center, double radius_m,
                         const BoundingBox& box);

}  // namespace skyex::geo

#endif  // SKYEX_GEO_DISTANCE_H_
