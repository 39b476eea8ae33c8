#include "geo/point.h"

#include <algorithm>

namespace skyex::geo {

BoundingBox Extend(const BoundingBox& box, const GeoPoint& p) {
  BoundingBox out = box;
  out.min_lat = std::min(out.min_lat, p.lat);
  out.max_lat = std::max(out.max_lat, p.lat);
  out.min_lon = std::min(out.min_lon, p.lon);
  out.max_lon = std::max(out.max_lon, p.lon);
  return out;
}

}  // namespace skyex::geo
