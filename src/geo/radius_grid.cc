#include "geo/radius_grid.h"

#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace skyex::geo {

namespace {

// The cell edge is the radius's latitude reach, clamped so that every
// in-range coordinate divided by it stays far inside int32 (|180 / 1e-6|
// is 1.8e8) and a zero, NaN or infinite radius still gets a usable grid.
constexpr double kMinCellDeg = 1e-6;
constexpr double kMaxCellDeg = 90.0;

// Padding of a query's degree reach. It absorbs the floating-point
// rounding of the degree conversions and of the distance functions
// themselves (a few ulps, relative), so that no point the distance test
// accepts can lie outside the box.
constexpr double kSlackRel = 1e-9;
constexpr double kSlackDeg = 1e-9;

constexpr double kDegToRad = std::numbers::pi / 180.0;

double Padded(double reach_deg) {
  return reach_deg * (1.0 + kSlackRel) + kSlackDeg;
}

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
  } else {
    unlocated_.push_back(id);
  }
}

std::vector<size_t> RadiusGrid::HaversineCandidates(const GeoPoint& center,
                                                    double radius_m) const {
  std::vector<size_t> out;
  CellRange range;
  if (radius_m >= 0.0 &&
      CellsToVisit(center, radius_m, /*great_circle=*/true, &range)) {
    VisitCells(range, [&out](uint32_t id) { out.push_back(id); });
    out.insert(out.end(), unplaced_.begin(), unplaced_.end());
    out.insert(out.end(), unlocated_.begin(), unlocated_.end());
    std::sort(out.begin(), out.end());
  } else {
    out.resize(next_.size());
    std::iota(out.begin(), out.end(), size_t{0});
  }
  return out;
}

bool RadiusGrid::CellsToVisit(const GeoPoint& center, double radius_m,
                              bool great_circle, CellRange* range) const {
  if (!InGridRange(center)) return false;
  // Both metrics are at least R·|dlat| in radians, so an accepted point
  // lies within lat_reach degrees of the centre's latitude, and both
  // points within `at` degrees of the equator.
  const double lat_reach = Padded(MetersToLatDegrees(radius_m));
  const double at = std::fabs(center.lat) + lat_reach;
  double lon_reach = 360.0;
  if (!great_circle) {
    // EquirectangularMeters scales dlon by cos(mean latitude), so the
    // longitude reach at `at` bounds dlon. MetersToLonDegrees returns
    // 360° once the cosine vanishes, which makes the box span every
    // longitude near a pole.
    lon_reach = Padded(MetersToLonDegrees(radius_m, std::min(90.0, at)));
  } else {
    // HaversineMeters crosses the poles and wraps at ±180°, which no cell
    // does: such a query tests every id. Within the radius h = sin²(dlat/2)
    // + cos·cos·sin²(dlon/2) <= sin²(r / 2R), and both cosines are >=
    // cos(at), so |sin(dlon/2)| <= sin(r / 2R) / cos(at) (r / 2R < 45°).
    if (!(at < 90.0)) return false;
    const double bound = std::sin(radius_m / (2.0 * kEarthRadiusMeters)) /
                         std::cos(at * kDegToRad);
    if (!(bound < 1.0)) return false;
    lon_reach = Padded(2.0 * std::asin(bound) / kDegToRad);
    if (center.lon - lon_reach < -180.0 || center.lon + lon_reach > 180.0) {
      return false;
    }
  }
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
