#ifndef SKYEX_SHARD_SHARD_MAP_H_
#define SKYEX_SHARD_SHARD_MAP_H_

// Geo-partitioned shard ownership derived from quadtree cell
// boundaries — the serving-side reuse of the QuadFlex blocking
// geometry. A quadtree is built over the dataset's points; its leaves
// (in DFS order, which keeps spatially adjacent cells adjacent in the
// ordering) are grouped into `num_shards` contiguous runs of roughly
// equal point counts. A shard therefore owns a union of whole cells:
// ownership of any point is a deterministic tree descent, and "which
// shards can hold a match within radius r" is a conservative
// circle-vs-cell test (geo::CircleIntersectsBox) — a shard not listed
// provably holds no candidate, so scatter fan-out prunes without ever
// losing a pair.
//
// Records without coordinates cannot be placed spatially; they all
// live on shard 0, and queries without coordinates fan out to every
// shard (the cartesian-fallback analogue of a single linker).
//
// One shard owns every cell, so a one-shard map keeps neither the
// points nor the tree: it answers shard 0 for everything.

#include <cstddef>
#include <memory>
#include <vector>

#include "geo/point.h"
#include "geo/quadtree.h"

namespace skyex::shard {

struct ShardMapOptions {
  /// Quadtree leaf split threshold / depth cap (geo::Quadtree::Options).
  size_t capacity = 64;
  size_t max_depth = 16;
};

class ShardMap {
 public:
  /// Builds the partition over `points` (one per dataset record,
  /// invalid points allowed). `num_shards` is clamped to >= 1.
  ShardMap(std::vector<geo::GeoPoint> points, size_t num_shards,
           ShardMapOptions options = {});

  ShardMap(const ShardMap&) = delete;
  ShardMap& operator=(const ShardMap&) = delete;

  size_t num_shards() const { return num_shards_; }
  /// Quadtree leaves (0 for a one-shard map, which has no tree).
  size_t num_leaves() const { return leaf_shard_.size(); }

  /// Shard owning `p`: the shard of the quadtree leaf the point routes
  /// to (insert routing — boundary points go to the >=-side cell, and
  /// points outside the root box to a border cell). Invalid points are
  /// owned by shard 0.
  size_t OwnerOf(const geo::GeoPoint& p) const;

  /// Shards that could hold a record within `radius_m` of `p`, owner
  /// included — the scatter target set. Sorted, unique. An invalid `p`
  /// returns every shard (a coordinate-less query must scan the whole
  /// corpus, like a single linker's cartesian fallback).
  std::vector<size_t> ShardsIntersecting(const geo::GeoPoint& p,
                                         double radius_m) const;

  /// Dataset indices owned by each shard, original order preserved
  /// inside each partition; every index appears in exactly one
  /// partition. This is the record placement BootstrapShardedLinkServices
  /// consumes.
  std::vector<std::vector<size_t>> Partitions() const;

  /// Shard of each quadtree leaf, in DFS leaf order (diagnostic).
  const std::vector<size_t>& leaf_shard() const { return leaf_shard_; }

 private:
  size_t num_points_ = 0;
  size_t num_shards_ = 1;
  std::vector<geo::GeoPoint> points_;    // empty for one shard
  std::unique_ptr<geo::Quadtree> tree_;  // references points_; or null
  std::vector<size_t> leaf_shard_;
};

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_SHARD_MAP_H_
