#include "geo/quadflex.h"

#include <algorithm>
#include <cmath>

#include "geo/distance.h"
#include "geo/quadtree.h"
#include "obs/metrics.h"
#include "prof/prof.h"

namespace skyex::geo {

namespace {

// The density-adaptive pairing radius of a leaf: the leaf's half-diagonal,
// clamped to [min_radius, max_radius]. Small (dense) leaves get small
// radii; large (sparse) leaves get large ones.
double LeafRadiusMeters(const BoundingBox& box, const QuadFlexOptions& opt) {
  const GeoPoint a{box.min_lat, box.min_lon, true};
  const GeoPoint b{box.max_lat, box.max_lon, true};
  const double diag = EquirectangularMeters(a, b);
  return std::clamp(diag / 2.0, opt.min_radius_m, opt.max_radius_m);
}

}  // namespace

std::vector<CandidatePair> QuadFlexBlock(const std::vector<GeoPoint>& points,
                                         const QuadFlexOptions& options) {
  SKYEX_PHASE("blocking/quadflex", prof::Phase::kBlocking, nullptr);
  Quadtree::Options tree_options;
  tree_options.capacity = options.leaf_capacity;
  tree_options.max_depth = options.max_depth;
  Quadtree tree(points, tree_options);

  std::vector<CandidatePair> pairs;
  tree.ForEachLeaf([&](const std::vector<size_t>& indices,
                       const BoundingBox& box, size_t /*depth*/) {
    if (indices.empty()) return;
    const double radius = LeafRadiusMeters(box, options);

    // Within-leaf pairs.
    for (size_t x = 0; x < indices.size(); ++x) {
      for (size_t y = x + 1; y < indices.size(); ++y) {
        const size_t i = indices[x];
        const size_t j = indices[y];
        const double d = EquirectangularMeters(points[i], points[j]);
        if (d >= 0.0 && d <= radius) {
          pairs.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
    }

    if (!options.compare_neighbor_leaves) return;

    // Pairs across the leaf boundary: query a ring of width `radius`
    // around the leaf box and pair leaf points with outside points.
    const double dlat = MetersToLatDegrees(radius);
    const double dlon = MetersToLonDegrees(radius, box.CenterLat());
    const BoundingBox ring{box.min_lat - dlat, box.min_lon - dlon,
                           box.max_lat + dlat, box.max_lon + dlon};
    const std::vector<size_t> nearby = tree.Query(ring);
    for (size_t i : indices) {
      for (size_t j : nearby) {
        if (box.Contains(points[j])) continue;  // handled by j's own leaf
        const double d = EquirectangularMeters(points[i], points[j]);
        if (d >= 0.0 && d <= radius) {
          pairs.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
    }
  });

  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  SKYEX_COUNTER_ADD("geo/quadtree_node_visits", tree.query_nodes_visited());
  SKYEX_COUNTER_ADD("geo/quadflex_leaves", tree.num_leaves());
  SKYEX_COUNTER_ADD("blocking/candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> CartesianBlock(size_t n) {
  SKYEX_PHASE("blocking/cartesian", prof::Phase::kBlocking, nullptr);
  std::vector<CandidatePair> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  SKYEX_COUNTER_ADD("blocking/candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> BlockPoints(const std::vector<GeoPoint>& points,
                                       const char** blocker) {
  const bool any_coordinates = std::any_of(
      points.begin(), points.end(), [](const GeoPoint& p) { return p.valid; });
  if (blocker != nullptr) {
    *blocker = any_coordinates ? "quadflex" : "cartesian";
  }
  return any_coordinates ? QuadFlexBlock(points)
                         : CartesianBlock(points.size());
}

}  // namespace skyex::geo
