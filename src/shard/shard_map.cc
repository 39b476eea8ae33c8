#include "shard/shard_map.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace skyex::shard {

ShardMap::ShardMap(std::vector<geo::GeoPoint> points, size_t num_shards,
                   ShardMapOptions options)
    : num_points_(points.size()),
      num_shards_(std::max<size_t>(1, num_shards)) {
  if (num_shards_ == 1) return;  // one shard owns every cell: no tree
  points_ = std::move(points);
  geo::Quadtree::Options tree_options;
  tree_options.capacity = options.capacity;
  tree_options.max_depth = options.max_depth;
  tree_ = std::make_unique<geo::Quadtree>(points_, tree_options);

  // Leaf point counts in DFS order, then contiguous runs of leaves
  // with roughly total/num_shards points each. A run boundary advances
  // once the cumulative count reaches the next 1/num_shards slice, so
  // every shard gets work even when one dense cell dwarfs the rest.
  std::vector<size_t> leaf_counts;
  tree_->ForEachLeaf([&leaf_counts](const std::vector<size_t>& indices,
                                    const geo::BoundingBox&, size_t) {
    leaf_counts.push_back(indices.size());
  });
  const size_t total =
      std::accumulate(leaf_counts.begin(), leaf_counts.end(), size_t{0});
  leaf_shard_.resize(leaf_counts.size(), 0);
  size_t shard = 0;
  size_t cumulative = 0;
  for (size_t leaf = 0; leaf < leaf_counts.size(); ++leaf) {
    leaf_shard_[leaf] = shard;
    cumulative += leaf_counts[leaf];
    while (shard + 1 < num_shards_ && total > 0 &&
           cumulative * num_shards_ >= (shard + 1) * total) {
      ++shard;
    }
  }
}

size_t ShardMap::OwnerOf(const geo::GeoPoint& p) const {
  if (!p.valid || tree_ == nullptr) return 0;
  const int ordinal = tree_->RouteLeafOrdinal(p);
  if (ordinal < 0 || static_cast<size_t>(ordinal) >= leaf_shard_.size()) {
    return 0;
  }
  return leaf_shard_[static_cast<size_t>(ordinal)];
}

std::vector<size_t> ShardMap::ShardsIntersecting(const geo::GeoPoint& p,
                                                 double radius_m) const {
  std::vector<size_t> shards;
  if (!p.valid || tree_ == nullptr) {
    shards.resize(num_shards_);
    std::iota(shards.begin(), shards.end(), size_t{0});
    return shards;
  }
  for (size_t leaf : tree_->LeafOrdinalsIntersecting(p, radius_m)) {
    shards.push_back(leaf_shard_[leaf]);
  }
  shards.push_back(OwnerOf(p));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<std::vector<size_t>> ShardMap::Partitions() const {
  std::vector<std::vector<size_t>> partitions(num_shards_);
  for (size_t i = 0; i < num_points_; ++i) {
    partitions[tree_ != nullptr ? OwnerOf(points_[i]) : 0].push_back(i);
  }
  return partitions;
}

}  // namespace skyex::shard
