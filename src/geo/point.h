#ifndef SKYEX_GEO_POINT_H_
#define SKYEX_GEO_POINT_H_

namespace skyex::geo {

/// A geographic point in degrees. Latitude in [-90, 90], longitude in
/// [-180, 180]. A point can be marked invalid (missing coordinates) —
/// the Restaurants dataset of the paper has no coordinates at all.
struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;
  bool valid = true;

  static GeoPoint Invalid() { return GeoPoint{0.0, 0.0, false}; }
};

/// An axis-aligned bounding box in degrees.
struct BoundingBox {
  double min_lat = 0.0;
  double min_lon = 0.0;
  double max_lat = 0.0;
  double max_lon = 0.0;

  bool Contains(const GeoPoint& p) const {
    return p.valid && p.lat >= min_lat && p.lat <= max_lat &&
           p.lon >= min_lon && p.lon <= max_lon;
  }

  double CenterLat() const { return 0.5 * (min_lat + max_lat); }
  double CenterLon() const { return 0.5 * (min_lon + max_lon); }
};

/// Smallest box containing both points of a span of points; returns a
/// zero-area box at the origin for an empty span.
BoundingBox Extend(const BoundingBox& box, const GeoPoint& p);

}  // namespace skyex::geo

#endif  // SKYEX_GEO_POINT_H_
