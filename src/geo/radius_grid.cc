#include "geo/radius_grid.h"

#include <cmath>
#include <stdexcept>

namespace skyex::geo {

namespace {

// The cell edge is the radius's latitude reach, clamped so that every
// in-range coordinate divided by it stays far inside int32 (|180 / 1e-6|
// is 1.8e8) and a zero, NaN or infinite radius still gets a usable grid.
constexpr double kMinCellDeg = 1e-6;
constexpr double kMaxCellDeg = 90.0;

// Padding of a query's degree reach. It absorbs the floating-point
// rounding of the degree conversions and of EquirectangularMeters itself
// (a few ulps, relative), so that no point the distance test accepts can
// lie outside the box.
constexpr double kSlackRel = 1e-9;
constexpr double kSlackDeg = 1e-9;

bool InGridRange(const GeoPoint& p) {
  // NaN fails both comparisons and ±inf the bound, so this also rejects
  // every non-finite coordinate.
  return p.valid && std::fabs(p.lat) <= 90.0 && std::fabs(p.lon) <= 180.0;
}

}  // namespace

RadiusGrid::RadiusGrid(double radius_m) : radius_m_(radius_m) {
  const double edge = MetersToLatDegrees(radius_m);
  cell_deg_ = edge >= kMinCellDeg ? std::min(edge, kMaxCellDeg) : kMinCellDeg;
}

void RadiusGrid::Insert(const GeoPoint& p) {
  if (next_.size() >= kNoId) {
    throw std::length_error("RadiusGrid holds at most 2^32 - 1 points");
  }
  const uint32_t id = static_cast<uint32_t>(next_.size());
  // The id's slot exists before any cell names it, so a throwing
  // allocation below leaves no chain pointing past next_.
  next_.push_back(kNoId);
  if (InGridRange(p)) {
    const auto [it, fresh] = heads_.try_emplace(
        CellKey(static_cast<int64_t>(std::floor(p.lat / cell_deg_)),
                static_cast<int64_t>(std::floor(p.lon / cell_deg_))),
        id);
    if (!fresh) {
      next_[id] = it->second;
      it->second = id;
    }
  } else if (p.valid) {
    unplaced_.push_back(id);
  }
}

bool RadiusGrid::CellsToVisit(const GeoPoint& center,
                              CellRange* range) const {
  if (!InGridRange(center)) return false;
  // EquirectangularMeters is at least R·|dlat| in radians, so an accepted
  // point lies within lat_reach degrees of the centre's latitude. It
  // scales dlon by cos(mean latitude), and |mean| <= |center.lat| +
  // lat_reach for such a point, so the longitude reach at that latitude
  // bounds dlon. MetersToLonDegrees returns 360° once the cosine
  // vanishes, which makes the box span every longitude near a pole.
  const double lat_reach =
      MetersToLatDegrees(radius_m_) * (1.0 + kSlackRel) + kSlackDeg;
  const double at = std::min(90.0, std::fabs(center.lat) + lat_reach);
  const double lon_reach =
      MetersToLonDegrees(radius_m_, at) * (1.0 + kSlackRel) + kSlackDeg;
  // Stored cells lie inside [-90, 90] x [-180, 180], so clamping the box
  // to it loses none and bounds every cell index before the casts.
  const double lat_lo =
      std::floor(std::max(center.lat - lat_reach, -90.0) / cell_deg_);
  const double lat_hi =
      std::floor(std::min(center.lat + lat_reach, 90.0) / cell_deg_);
  const double lon_lo =
      std::floor(std::max(center.lon - lon_reach, -180.0) / cell_deg_);
  const double lon_hi =
      std::floor(std::min(center.lon + lon_reach, 180.0) / cell_deg_);
  // Testing every id is no more work than walking more cells than there
  // are ids; it is also the bound that keeps a pole query from walking
  // a whole band of longitude cells.
  const double cells = (lat_hi - lat_lo + 1.0) * (lon_hi - lon_lo + 1.0);
  if (!(cells <= static_cast<double>(next_.size()))) return false;
  range->lat_lo = static_cast<int64_t>(lat_lo);
  range->lat_hi = static_cast<int64_t>(lat_hi);
  range->lon_lo = static_cast<int64_t>(lon_lo);
  range->lon_hi = static_cast<int64_t>(lon_hi);
  return true;
}

}  // namespace skyex::geo
