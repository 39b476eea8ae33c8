#include "geo/quadtree.h"

#include <algorithm>
#include <limits>

#include "geo/distance.h"

namespace skyex::geo {

Quadtree::Quadtree(const std::vector<GeoPoint>& points, const Options& options)
    : points_(points), options_(options) {
  root_ = std::make_unique<Node>();
  // Compute the bounding box of the valid points.
  BoundingBox box{std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::lowest(),
                  std::numeric_limits<double>::lowest()};
  bool any = false;
  for (const GeoPoint& p : points_) {
    if (!p.valid) continue;
    box = Extend(box, p);
    any = true;
  }
  if (!any) box = BoundingBox{0, 0, 0, 0};
  root_->box = box;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (!points_[i].valid) continue;
    Insert(root_.get(), i);
    ++num_points_;
  }
}

void Quadtree::Split(Node* node) {
  const double mid_lat = node->box.CenterLat();
  const double mid_lon = node->box.CenterLon();
  const BoundingBox quads[4] = {
      {node->box.min_lat, node->box.min_lon, mid_lat, mid_lon},
      {node->box.min_lat, mid_lon, mid_lat, node->box.max_lon},
      {mid_lat, node->box.min_lon, node->box.max_lat, mid_lon},
      {mid_lat, mid_lon, node->box.max_lat, node->box.max_lon},
  };
  for (int q = 0; q < 4; ++q) {
    node->children[q] = std::make_unique<Node>();
    node->children[q]->box = quads[q];
    node->children[q]->depth = node->depth + 1;
  }
  std::vector<size_t> indices = std::move(node->indices);
  node->indices.clear();
  for (size_t index : indices) Insert(node, index);
}

void Quadtree::Insert(Node* node, size_t index) {
  while (!node->IsLeaf()) {
    const GeoPoint& p = points_[index];
    const double mid_lat = node->box.CenterLat();
    const double mid_lon = node->box.CenterLon();
    const int quad = (p.lat >= mid_lat ? 2 : 0) + (p.lon >= mid_lon ? 1 : 0);
    node = node->children[quad].get();
  }
  node->indices.push_back(index);
  if (node->indices.size() > options_.capacity &&
      node->depth < options_.max_depth) {
    Split(node);
  }
}

std::vector<size_t> Quadtree::Query(const BoundingBox& box) const {
  std::vector<size_t> out;
  QueryNode(root_.get(), box, &out);
  return out;
}

void Quadtree::QueryNode(const Node* node, const BoundingBox& box,
                         std::vector<size_t>* out) const {
  if (node == nullptr) return;
  ++query_nodes_visited_;
  // Reject nodes that do not intersect the query box.
  if (node->box.max_lat < box.min_lat || node->box.min_lat > box.max_lat ||
      node->box.max_lon < box.min_lon || node->box.min_lon > box.max_lon) {
    return;
  }
  if (node->IsLeaf()) {
    for (size_t index : node->indices) {
      if (box.Contains(points_[index])) out->push_back(index);
    }
    return;
  }
  for (const auto& child : node->children) {
    QueryNode(child.get(), box, out);
  }
}

size_t Quadtree::CountLeaves(const Node* node) {
  if (node == nullptr) return 0;
  if (node->IsLeaf()) return 1;
  size_t count = 0;
  for (const auto& child : node->children) count += CountLeaves(child.get());
  return count;
}

int Quadtree::RouteLeafOrdinal(const GeoPoint& p) const {
  if (!p.valid) return -1;
  const Node* node = root_.get();
  size_t ordinal = 0;
  while (!node->IsLeaf()) {
    const double mid_lat = node->box.CenterLat();
    const double mid_lon = node->box.CenterLon();
    // Same routing rule as Insert: >= goes to the upper/right child.
    const int quad = (p.lat >= mid_lat ? 2 : 0) + (p.lon >= mid_lon ? 1 : 0);
    for (int q = 0; q < quad; ++q) {
      ordinal += CountLeaves(node->children[q].get());
    }
    node = node->children[quad].get();
  }
  return static_cast<int>(ordinal);
}

void Quadtree::CollectIntersecting(const Node* node, const GeoPoint& center,
                                   double radius_m, size_t* ordinal,
                                   std::vector<size_t>* out) const {
  if (node->IsLeaf()) {
    if (CircleIntersectsBox(center, radius_m, node->box)) {
      out->push_back(*ordinal);
    }
    ++*ordinal;
    return;
  }
  if (!CircleIntersectsBox(center, radius_m, node->box)) {
    // Children tile this box, so none of them can intersect either.
    *ordinal += CountLeaves(node);
    return;
  }
  for (const auto& child : node->children) {
    CollectIntersecting(child.get(), center, radius_m, ordinal, out);
  }
}

std::vector<size_t> Quadtree::LeafOrdinalsIntersecting(
    const GeoPoint& center, double radius_m) const {
  std::vector<size_t> out;
  if (!center.valid) return out;
  size_t ordinal = 0;
  CollectIntersecting(root_.get(), center, radius_m, &ordinal, &out);
  return out;
}

size_t Quadtree::num_leaves() const {
  size_t count = 0;
  VisitLeaves(root_.get(), [&count](const std::vector<size_t>&,
                                    const BoundingBox&, size_t) { ++count; });
  return count;
}

}  // namespace skyex::geo
