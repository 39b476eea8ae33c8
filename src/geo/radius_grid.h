#ifndef SKYEX_GEO_RADIUS_GRID_H_
#define SKYEX_GEO_RADIUS_GRID_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/distance.h"
#include "geo/point.h"

namespace skyex::geo {

/// Append-only uniform grid that answers fixed-radius neighbourhood
/// queries over point ids: the serving linker's candidate index. Ids are
/// 0, 1, 2, ... in Insert order, so they can be the indices of an
/// append-only store that holds the points.
///
/// Query returns exactly the ids whose point `p` satisfies
/// `EquirectangularMeters(center, p)` in [0, radius_m], in ascending
/// order: the result of testing every stored id. Cells are square in
/// degrees with the latitude reach of radius_m as their edge, and a
/// query tests the ids of the cells that the radius circle's
/// conservative degree box touches. No cell wraps at ±180° longitude,
/// matching EquirectangularMeters, which does not wrap either.
///
/// Exactness cases the cell walk cannot serve fall back to testing more
/// ids, never fewer:
/// - A query tests every stored id when its box spans more cells than
///   there are ids (near a pole the longitude reach grows without bound)
///   or when its centre lies outside [-90, 90] x [-180, 180] or is not
///   finite.
/// - A stored point outside that range, or not finite, gets no cell;
///   every query tests it. No such value ever reaches a float-to-integer
///   cell cast.
/// Points marked invalid match nothing (EquirectangularMeters returns -1
/// for them): they take an id but no cell, so the cell walk skips them.
///
/// Not thread-safe for Insert; concurrent Query calls are safe.
class RadiusGrid {
 public:
  explicit RadiusGrid(double radius_m);

  /// Stores `p` under id size(). Throws std::length_error past 2^32 - 1
  /// ids.
  void Insert(const GeoPoint& p);

  /// Ids (ascending) of the stored points within radius_m() of `center`.
  /// `point_at(id)` must return the point inserted under `id`. `tested`
  /// (optional) receives how many stored ids ran the distance test.
  template <typename PointAt>
  std::vector<size_t> Query(const GeoPoint& center, const PointAt& point_at,
                            size_t* tested = nullptr) const;

  size_t size() const { return next_.size(); }
  /// Cell edge in degrees of latitude and of longitude.
  double cell_deg() const { return cell_deg_; }
  size_t occupied_cells() const { return heads_.size(); }

 private:
  static constexpr uint32_t kNoId = UINT32_MAX;

  /// Inclusive cell-index ranges a query walks.
  struct CellRange {
    int64_t lat_lo = 0;
    int64_t lat_hi = -1;
    int64_t lon_lo = 0;
    int64_t lon_hi = -1;
  };

  /// False when the query must test every stored id instead.
  bool CellsToVisit(const GeoPoint& center, CellRange* range) const;

  /// Both indices fit int32 (the .cc bounds them), so the packing is
  /// unique.
  static uint64_t CellKey(int64_t lat_cell, int64_t lon_cell) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(lat_cell)) << 32) |
           static_cast<uint32_t>(lon_cell);
  }

  double radius_m_;
  double cell_deg_;
  /// Cell key → newest id stored in the cell.
  std::unordered_map<uint64_t, uint32_t> heads_;
  /// Id → next older id in the same cell (kNoId ends the chain and marks
  /// ids that have no cell).
  std::vector<uint32_t> next_;
  /// Valid ids whose point lies outside the grid's coordinate range.
  std::vector<uint32_t> unplaced_;
};

template <typename PointAt>
std::vector<size_t> RadiusGrid::Query(const GeoPoint& center,
                                      const PointAt& point_at,
                                      size_t* tested) const {
  std::vector<size_t> out;
  size_t count = 0;
  // A negative or NaN radius accepts no distance, and an invalid centre
  // has none: both match nothing, as the test over every id would.
  if (center.valid && radius_m_ >= 0.0) {
    const auto test = [&](size_t id) {
      ++count;
      const double d = EquirectangularMeters(center, point_at(id));
      if (d >= 0.0 && d <= radius_m_) out.push_back(id);
    };
    CellRange range;
    if (CellsToVisit(center, &range)) {
      for (int64_t lat = range.lat_lo; lat <= range.lat_hi; ++lat) {
        for (int64_t lon = range.lon_lo; lon <= range.lon_hi; ++lon) {
          const auto it = heads_.find(CellKey(lat, lon));
          if (it == heads_.end()) continue;
          for (uint32_t id = it->second; id != kNoId; id = next_[id]) {
            test(id);
          }
        }
      }
      for (uint32_t id : unplaced_) test(id);
      std::sort(out.begin(), out.end());
    } else {
      for (size_t id = 0; id < next_.size(); ++id) test(id);
    }
  }
  if (tested != nullptr) *tested = count;
  return out;
}

}  // namespace skyex::geo

#endif  // SKYEX_GEO_RADIUS_GRID_H_
