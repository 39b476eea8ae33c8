#ifndef SKYEX_GEO_QUADFLEX_H_
#define SKYEX_GEO_QUADFLEX_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "geo/point.h"

namespace skyex::geo {

/// Configuration for the QuadFlex spatial blocker of Isaj et al.
///
/// QuadFlex groups spatial entities with a quadtree whose pairing radius
/// adapts to the local density: in dense areas (deep, small leaves) only
/// very close entities are paired, while in sparse areas the radius grows
/// up to `max_radius_m`. This mirrors the paper's motivating example of a
/// small radius in the city center and a large one in the countryside.
struct QuadFlexOptions {
  /// A leaf splits while it holds more than this many points.
  size_t leaf_capacity = 128;
  /// Maximum quadtree depth.
  size_t max_depth = 20;
  /// Pairing radius ceiling (sparse areas).
  double max_radius_m = 200.0;
  /// Pairing radius floor (dense areas).
  double min_radius_m = 25.0;
  /// Also compare points whose leaves are adjacent, removing the boundary
  /// losses of pure within-leaf comparison at some extra cost.
  bool compare_neighbor_leaves = true;
};

/// A candidate pair of entity indices produced by blocking, i < j.
using CandidatePair = std::pair<size_t, size_t>;

/// Runs QuadFlex blocking over `points` and returns the candidate pairs
/// (indices into `points`, first < second, de-duplicated). Invalid points
/// (missing coordinates) never pair.
std::vector<CandidatePair> QuadFlexBlock(const std::vector<GeoPoint>& points,
                                         const QuadFlexOptions& options = {});

/// All-pairs Cartesian blocking (used for datasets without coordinates,
/// like the Restaurants dataset). Returns n·(n-1)/2 pairs.
std::vector<CandidatePair> CartesianBlock(size_t n);

/// The pipelines' blocker choice: QuadFlexBlock when any point has
/// coordinates (points without them then never pair), CartesianBlock
/// over all points when none has. `blocker` (optional) receives
/// "quadflex" or "cartesian".
std::vector<CandidatePair> BlockPoints(const std::vector<GeoPoint>& points,
                                       const char** blocker = nullptr);

}  // namespace skyex::geo

#endif  // SKYEX_GEO_QUADFLEX_H_
