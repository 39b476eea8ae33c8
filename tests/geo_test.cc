#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "geo/distance.h"
#include "geo/point.h"
#include "geo/quadflex.h"
#include "geo/quadtree.h"
#include "geo/radius_grid.h"

namespace skyex::geo {
namespace {

// ----------------------------------------------------------------- Distance

TEST(Distance, ZeroForIdenticalPoints) {
  const GeoPoint p{57.0, 9.9, true};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(Distance, OneMillidegreeOfLatitude) {
  // 0.001° latitude ≈ 111.19 m everywhere.
  const GeoPoint a{57.0, 9.9, true};
  const GeoPoint b{57.001, 9.9, true};
  EXPECT_NEAR(HaversineMeters(a, b), 111.19, 0.5);
  EXPECT_NEAR(EquirectangularMeters(a, b), 111.19, 0.5);
}

TEST(Distance, AalborgToCopenhagen) {
  const GeoPoint aalborg{57.0488, 9.9217, true};
  const GeoPoint copenhagen{55.6761, 12.5683, true};
  // Great-circle distance is ≈ 220-230 km.
  const double d = HaversineMeters(aalborg, copenhagen);
  EXPECT_GT(d, 215000.0);
  EXPECT_LT(d, 235000.0);
}

TEST(Distance, InvalidPointsReturnSentinel) {
  const GeoPoint p{57.0, 9.9, true};
  EXPECT_LT(HaversineMeters(p, GeoPoint::Invalid()), 0.0);
  EXPECT_LT(EquirectangularMeters(GeoPoint::Invalid(), p), 0.0);
}

TEST(Distance, EquirectangularTracksHaversineLocally) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> lat(56.6, 57.6);
  std::uniform_real_distribution<double> lon(8.4, 10.6);
  std::uniform_real_distribution<double> delta(-0.01, 0.01);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint a{lat(rng), lon(rng), true};
    const GeoPoint b{a.lat + delta(rng), a.lon + delta(rng), true};
    const double h = HaversineMeters(a, b);
    const double e = EquirectangularMeters(a, b);
    EXPECT_NEAR(e, h, std::max(1.0, 0.01 * h));
  }
}

TEST(Distance, MetersToDegreesRoundTrip) {
  const double lat_deg = MetersToLatDegrees(1000.0);
  const GeoPoint a{57.0, 9.9, true};
  const GeoPoint b{57.0 + lat_deg, 9.9, true};
  EXPECT_NEAR(HaversineMeters(a, b), 1000.0, 2.0);

  const double lon_deg = MetersToLonDegrees(1000.0, 57.0);
  const GeoPoint c{57.0, 9.9 + lon_deg, true};
  EXPECT_NEAR(HaversineMeters(a, c), 1000.0, 2.0);
}

// ----------------------------------------------------------------- Quadtree

std::vector<GeoPoint> RandomPoints(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> lat(56.6, 57.6);
  std::uniform_real_distribution<double> lon(8.4, 10.6);
  std::vector<GeoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(GeoPoint{lat(rng), lon(rng), true});
  }
  return points;
}

TEST(Quadtree, QueryMatchesBruteForce) {
  const std::vector<GeoPoint> points = RandomPoints(2000, 7);
  Quadtree::Options options;
  options.capacity = 32;
  const Quadtree tree(points, options);
  EXPECT_EQ(tree.num_points(), points.size());

  const BoundingBox box{56.9, 9.0, 57.2, 9.8};
  std::vector<size_t> result = tree.Query(box);
  std::sort(result.begin(), result.end());

  std::vector<size_t> expected;
  for (size_t i = 0; i < points.size(); ++i) {
    if (box.Contains(points[i])) expected.push_back(i);
  }
  EXPECT_EQ(result, expected);
}

TEST(Quadtree, LeavesPartitionThePoints) {
  const std::vector<GeoPoint> points = RandomPoints(1000, 9);
  Quadtree::Options options;
  options.capacity = 16;
  const Quadtree tree(points, options);
  size_t total = 0;
  tree.ForEachLeaf([&](const std::vector<size_t>& indices,
                       const BoundingBox&, size_t) {
    total += indices.size();
  });
  EXPECT_EQ(total, points.size());
  EXPECT_GT(tree.num_leaves(), 1u);
}

TEST(Quadtree, SkipsInvalidPoints) {
  std::vector<GeoPoint> points = RandomPoints(10, 3);
  points.push_back(GeoPoint::Invalid());
  const Quadtree tree(points, Quadtree::Options{});
  EXPECT_EQ(tree.num_points(), 10u);
}

// ------------------------------------------------- Region queries (sharding)

TEST(Quadtree, RouteLeafOrdinalMatchesLeafMembership) {
  const std::vector<GeoPoint> points = RandomPoints(2000, 13);
  Quadtree::Options options;
  options.capacity = 32;
  const Quadtree tree(points, options);
  // Leaf ordinal of each point per ForEachLeaf (DFS) order — the
  // ground truth RouteLeafOrdinal must reproduce by descent.
  std::vector<int> leaf_of_point(points.size(), -1);
  int ordinal = 0;
  tree.ForEachLeaf([&](const std::vector<size_t>& indices,
                       const BoundingBox&, size_t) {
    for (size_t index : indices) leaf_of_point[index] = ordinal;
    ++ordinal;
  });
  EXPECT_EQ(static_cast<size_t>(ordinal), tree.num_leaves());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(tree.RouteLeafOrdinal(points[i]), leaf_of_point[i])
        << "point " << i << " routed to a leaf it is not stored in";
  }
}

TEST(Quadtree, RouteLeafOrdinalEdgeCases) {
  const std::vector<GeoPoint> points = RandomPoints(2000, 17);
  Quadtree::Options options;
  options.capacity = 32;
  const Quadtree tree(points, options);
  // Invalid point: no leaf.
  EXPECT_EQ(tree.RouteLeafOrdinal(GeoPoint::Invalid()), -1);
  // Points outside the root box still land in a border leaf.
  const int far_leaf = tree.RouteLeafOrdinal(GeoPoint{10.0, -120.0, true});
  ASSERT_GE(far_leaf, 0);
  EXPECT_LT(static_cast<size_t>(far_leaf), tree.num_leaves());
  // A point exactly on a leaf boundary routes deterministically: the
  // midpoints of every leaf edge are valid, in-range ordinals.
  tree.ForEachLeaf([&](const std::vector<size_t>&, const BoundingBox& box,
                       size_t) {
    for (const GeoPoint& edge :
         {GeoPoint{box.min_lat, box.CenterLon(), true},
          GeoPoint{box.max_lat, box.CenterLon(), true},
          GeoPoint{box.CenterLat(), box.min_lon, true},
          GeoPoint{box.CenterLat(), box.max_lon, true}}) {
      const int leaf = tree.RouteLeafOrdinal(edge);
      ASSERT_GE(leaf, 0);
      ASSERT_LT(static_cast<size_t>(leaf), tree.num_leaves());
      EXPECT_EQ(leaf, tree.RouteLeafOrdinal(edge));  // stable
    }
  });
}

// Random points in the two polar caps within 0.5° of either pole, where
// cos(lat) -> 0 stretches a radius over many degrees of longitude.
std::vector<GeoPoint> PolarPoints(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> from_pole(0.0, 0.5);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<GeoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    points.push_back(GeoPoint{sign * (90.0 - from_pole(rng)), lon(rng), true});
  }
  return points;
}

// The pruning guarantee behind the shard scatter: every stored point
// within the radius lives in a listed leaf, including points sitting
// exactly on cell edges. A leaf NOT listed must provably hold no
// candidate — asserted for every (query, point) pair by brute force.
TEST(Quadtree, LeafOrdinalsIntersectingCoverAllInRadiusPoints) {
  // The Danish world plus the polar caps: near a pole a conservative
  // region query must widen its longitude reach without bound.
  struct World {
    std::vector<GeoPoint> points;
    std::vector<GeoPoint> queries;
  };
  std::vector<World> worlds(2);
  worlds[0].points = RandomPoints(1500, 21);
  worlds[0].queries = RandomPoints(200, 5);
  worlds[1].points = PolarPoints(3000, 22);
  worlds[1].queries = PolarPoints(400, 6);
  Quadtree::Options options;
  options.capacity = 16;
  const double radius_m = 250.0;
  size_t in_radius = 0;
  for (World& world : worlds) {
    std::vector<GeoPoint>& points = world.points;
    {
      // Plant edge-landing points: build a throwaway tree, then add
      // points exactly on its leaf boundaries and rebuild.
      const Quadtree probe(points, options);
      std::vector<GeoPoint> edges;
      probe.ForEachLeaf([&](const std::vector<size_t>&,
                            const BoundingBox& box, size_t) {
        edges.push_back(GeoPoint{box.min_lat, box.CenterLon(), true});
        edges.push_back(GeoPoint{box.CenterLat(), box.max_lon, true});
      });
      points.insert(points.end(), edges.begin(), edges.end());
    }
    const Quadtree tree(points, options);
    for (const GeoPoint& query : world.queries) {
      const std::vector<size_t> leaves =
          tree.LeafOrdinalsIntersecting(query, radius_m);
      EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end()));
      for (const GeoPoint& p : points) {
        const double d = EquirectangularMeters(query, p);
        if (d < 0 || d > radius_m) continue;
        ++in_radius;
        const int leaf = tree.RouteLeafOrdinal(p);
        ASSERT_GE(leaf, 0);
        EXPECT_TRUE(std::binary_search(leaves.begin(), leaves.end(),
                                       static_cast<size_t>(leaf)))
            << "in-radius point (" << p.lat << ", " << p.lon << ") at " << d
            << "m from (" << query.lat << ", " << query.lon
            << ") lives in leaf " << leaf << ", which the region query pruned";
      }
    }
    EXPECT_TRUE(
        tree.LeafOrdinalsIntersecting(GeoPoint::Invalid(), radius_m).empty());
  }
  EXPECT_GT(in_radius, 100u);
}

TEST(Distance, CircleIntersectsBoxIsConservative) {
  const BoundingBox box{57.0, 9.8, 57.1, 10.0};
  // Center inside the box.
  EXPECT_TRUE(CircleIntersectsBox(GeoPoint{57.05, 9.9, true}, 100.0, box));
  // Center outside but within the radius of the near edge.
  const GeoPoint near{57.1008, 9.9, true};  // ≈ 90 m north of max_lat
  EXPECT_TRUE(CircleIntersectsBox(near, 100.0, box));
  // Far away: several km beyond any slack.
  EXPECT_FALSE(CircleIntersectsBox(GeoPoint{57.5, 9.9, true}, 100.0, box));
  // Invalid center intersects nothing.
  EXPECT_FALSE(CircleIntersectsBox(GeoPoint::Invalid(), 100.0, box));
  // Property: whenever a box point is within the radius of the center,
  // the test must say true (it may also say true slightly beyond).
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> lat(56.9, 57.2);
  std::uniform_real_distribution<double> lon(9.7, 10.1);
  for (int i = 0; i < 500; ++i) {
    const GeoPoint center{lat(rng), lon(rng), true};
    const GeoPoint clamped{
        std::clamp(center.lat, box.min_lat, box.max_lat),
        std::clamp(center.lon, box.min_lon, box.max_lon), true};
    const double d = EquirectangularMeters(center, clamped);
    if (d <= 150.0) {
      EXPECT_TRUE(CircleIntersectsBox(center, 150.0, box))
          << "closest box point is " << d << "m away";
    }
  }
  // Above |lat| 89.9° a radius spans degrees of longitude: a box 1.4° of
  // longitude east of a centre at (89.95, 0) holds a point ~136 m away.
  const GeoPoint pole_center{89.95, 0.0, true};
  const BoundingBox east{89.95, 1.4, 89.96, 1.6};
  const GeoPoint corner{east.min_lat, east.min_lon, true};
  ASSERT_LE(EquirectangularMeters(pole_center, corner), 150.0);
  EXPECT_TRUE(CircleIntersectsBox(pole_center, 150.0, east));
  // Property within 0.5° of either pole: whenever some sampled box point
  // is within the radius, the test says true.
  std::uniform_real_distribution<double> from_pole(0.0, 0.5);
  std::uniform_real_distribution<double> any_lon(-180.0, 180.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  size_t in_radius = 0;
  for (int i = 0; i < 4000; ++i) {
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    const GeoPoint center{sign * (90.0 - from_pole(rng)), any_lon(rng),
                          true};
    BoundingBox box;
    box.min_lat = std::clamp(center.lat + 0.006 * (unit(rng) - 0.7), -90.0,
                             90.0);
    box.max_lat = std::min(box.min_lat + 0.004 * unit(rng), 90.0);
    box.min_lon = center.lon + 3.0 * (unit(rng) - 0.6);
    box.max_lon = box.min_lon + 0.3 * unit(rng);
    bool reaches = false;
    for (int a = 0; a <= 10 && !reaches; ++a) {
      for (int o = 0; o <= 10 && !reaches; ++o) {
        const GeoPoint q{box.min_lat + (box.max_lat - box.min_lat) * a / 10.0,
                         box.min_lon + (box.max_lon - box.min_lon) * o / 10.0,
                         true};
        reaches = EquirectangularMeters(center, q) <= 150.0;
      }
    }
    if (!reaches) continue;
    ++in_radius;
    EXPECT_TRUE(CircleIntersectsBox(center, 150.0, box))
        << "center (" << center.lat << ", " << center.lon << ") box lat ["
        << box.min_lat << ", " << box.max_lat << "] lon [" << box.min_lon
        << ", " << box.max_lon << "]";
  }
  EXPECT_GT(in_radius, 100u);
}

// -------------------------------------------------- RadiusGrid (serving)

// The test every stored point runs in a scan: the reference the grid
// must reproduce exactly.
std::vector<size_t> ScanWithinRadius(const std::vector<GeoPoint>& points,
                                     size_t count, const GeoPoint& center,
                                     double radius_m) {
  std::vector<size_t> out;
  for (size_t i = 0; i < count; ++i) {
    const double d = EquirectangularMeters(center, points[i]);
    if (d >= 0.0 && d <= radius_m) out.push_back(i);
  }
  return out;
}

// Inserts `points` one by one and, at a few store sizes on the way,
// checks every query against the scan over the stored prefix. Returns
// the ids tested over all queries at the full size.
size_t ExpectGridMatchesScan(const std::vector<GeoPoint>& points,
                             const std::vector<GeoPoint>& queries,
                             double radius_m) {
  RadiusGrid grid(radius_m);
  const auto point_at = [&points](size_t i) -> const GeoPoint& {
    return points[i];
  };
  size_t tested_total = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    grid.Insert(points[i]);
    const size_t stored = i + 1;
    if (stored != points.size() && stored != points.size() / 2 &&
        stored != 7) {
      continue;
    }
    EXPECT_EQ(grid.size(), stored);
    for (const GeoPoint& q : queries) {
      size_t tested = 0;
      EXPECT_EQ(grid.Query(q, point_at, &tested),
                ScanWithinRadius(points, stored, q, radius_m))
          << "query (" << q.lat << ", " << q.lon << ") valid=" << q.valid
          << " radius " << radius_m << " over " << stored << " points";
      if (stored == points.size()) tested_total += tested;
    }
  }
  return tested_total;
}

TEST(RadiusGrid, MatchesScanOverRandomPoints) {
  std::vector<GeoPoint> points = RandomPoints(3000, 31);
  // Duplicate coordinates: every tenth point again, twice.
  for (size_t i = 0; i < 3000; i += 10) {
    points.push_back(points[i]);
    points.push_back(points[i]);
  }
  std::vector<GeoPoint> queries = RandomPoints(150, 32);
  // Queries on stored points and their duplicates.
  for (size_t i = 0; i < 3000; i += 97) queries.push_back(points[i]);
  for (double radius_m : {200.0, 37.5, 1500.0}) {
    const size_t tested = ExpectGridMatchesScan(points, queries, radius_m);
    // The cells, not a scan, served these queries.
    EXPECT_LT(tested, queries.size() * points.size() / 4) << radius_m;
  }
}

TEST(RadiusGrid, PointsExactlyOnTheRadiusAndOnCellEdges) {
  const std::vector<GeoPoint> base = RandomPoints(1500, 33);
  std::mt19937_64 rng(34);
  std::uniform_int_distribution<size_t> pick(0, base.size() - 1);
  for (int k = 0; k < 40; ++k) {
    // A radius equal to the computed distance of a stored pair: the far
    // point sits exactly on the radius and must be included.
    const GeoPoint center = base[pick(rng)];
    const GeoPoint& far = base[pick(rng)];
    const double radius_m = EquirectangularMeters(center, far);
    if (radius_m <= 0.0 || radius_m > 3000.0) continue;
    const std::vector<size_t> scan =
        ScanWithinRadius(base, base.size(), center, radius_m);
    ASSERT_FALSE(scan.empty());
    ExpectGridMatchesScan(base, {center}, radius_m);
  }
  // Points and query centres exactly on cell edges, and one ulp either
  // side of them.
  const double radius_m = 200.0;
  const double edge = RadiusGrid(radius_m).cell_deg();
  std::vector<GeoPoint> points = base;
  std::vector<GeoPoint> queries;
  for (int a = 0; a < 12; ++a) {
    for (int o = 0; o < 12; ++o) {
      const double lat = (std::floor(57.0 / edge) + a) * edge;
      const double lon = (std::floor(9.9 / edge) + o) * edge;
      for (double dlat : {-1.0, 0.0, 1.0}) {
        const double plat = std::nextafter(lat, lat + dlat);
        points.push_back(GeoPoint{dlat == 0.0 ? lat : plat, lon, true});
        points.push_back(GeoPoint{lat, std::nextafter(lon, lon + dlat), true});
      }
      if ((a + o) % 3 == 0) queries.push_back(GeoPoint{lat, lon, true});
    }
  }
  ExpectGridMatchesScan(points, queries, radius_m);
}

TEST(RadiusGrid, ZeroRadiusFindsOnlyDuplicates) {
  std::vector<GeoPoint> points = RandomPoints(1000, 35);
  for (size_t i = 0; i < 1000; i += 50) points.push_back(points[i]);
  std::vector<GeoPoint> queries(points.begin(), points.begin() + 200);
  queries.push_back(GeoPoint{57.1, 9.9, true});
  ExpectGridMatchesScan(points, queries, 0.0);
  RadiusGrid grid(0.0);
  for (const GeoPoint& p : points) grid.Insert(p);
  const auto point_at = [&points](size_t i) -> const GeoPoint& {
    return points[i];
  };
  EXPECT_EQ(grid.Query(points[50], point_at),
            (std::vector<size_t>{50, 1001}));
}

TEST(RadiusGrid, PolarQueriesTestEveryPoint) {
  std::vector<GeoPoint> points = PolarPoints(3000, 36);
  points.push_back(GeoPoint{90.0, 0.0, true});
  points.push_back(GeoPoint{90.0, 179.5, true});
  points.push_back(GeoPoint{-90.0, -42.0, true});
  std::vector<GeoPoint> queries = PolarPoints(200, 37);
  queries.push_back(GeoPoint{90.0, -120.0, true});
  queries.push_back(GeoPoint{-90.0, 0.0, true});
  queries.push_back(GeoPoint{89.9999, 10.0, true});
  ExpectGridMatchesScan(points, queries, 200.0);
  // At the pole every longitude is within reach: the query tests every
  // stored point and finds the other pole-top points.
  RadiusGrid grid(200.0);
  for (const GeoPoint& p : points) grid.Insert(p);
  const auto point_at = [&points](size_t i) -> const GeoPoint& {
    return points[i];
  };
  size_t tested = 0;
  const std::vector<size_t> top =
      grid.Query(GeoPoint{90.0, -120.0, true}, point_at, &tested);
  EXPECT_EQ(tested, points.size());
  EXPECT_NE(std::find(top.begin(), top.end(), 3000u), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), 3001u), top.end());
}

TEST(RadiusGrid, OutOfRangeAndNonFinitePointsStayExact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<GeoPoint> points = RandomPoints(2000, 38);
  // Coordinates the parsers reject but code can construct. Some of them
  // are within 200 m of an in-range point under EquirectangularMeters.
  const std::vector<GeoPoint> odd = {
      {90.0005, 10.0, true},   {90.4, 10.0, true},    {-90.001, 3.0, true},
      {57.0, 180.0005, true},  {57.0, -180.001, true}, {57.0, 181.0, true},
      {kNaN, 9.9, true},       {57.0, kNaN, true},    {kInf, 9.9, true},
      {57.0, -kInf, true},     {1e300, 1e300, true},  {57.05, 9.95, false},
      {89.9999, 10.0, true},   {57.0, 179.9999, true}, {57.0, -179.9999, true},
      {57.0, 180.0, true},     {57.0, -180.0, true},
  };
  for (const GeoPoint& p : odd) points.push_back(p);
  std::vector<GeoPoint> queries = RandomPoints(50, 39);
  for (const GeoPoint& p : odd) queries.push_back(p);
  queries.push_back(GeoPoint{89.9995, 10.0, true});
  queries.push_back(GeoPoint{90.401, 10.0, true});
  queries.push_back(GeoPoint{57.0, 179.9995, true});
  queries.push_back(GeoPoint{57.0, -179.9995, true});
  queries.push_back(GeoPoint{-kInf, kInf, true});
  ExpectGridMatchesScan(points, queries, 200.0);

  RadiusGrid grid(200.0);
  for (const GeoPoint& p : points) grid.Insert(p);
  const auto point_at = [&points](size_t i) -> const GeoPoint& {
    return points[i];
  };
  // An in-range query finds an out-of-range neighbour through the list
  // every query visits...
  const std::vector<size_t> near_pole =
      grid.Query(GeoPoint{89.9999, 10.0, true}, point_at);
  EXPECT_NE(std::find(near_pole.begin(), near_pole.end(), 2000u),
            near_pole.end());
  // ...and no cell wraps at ±180°: the scan sees 359.9998° between
  // these two.
  const std::vector<size_t> east =
      grid.Query(GeoPoint{57.0, 179.9999, true}, point_at);
  EXPECT_EQ(std::find(east.begin(), east.end(), 2014u), east.end());
  EXPECT_NE(std::find(east.begin(), east.end(), 2015u), east.end());
  EXPECT_NE(std::find(east.begin(), east.end(), 2003u), east.end());
  // Invalid centres and unusable radii match nothing, as in the scan.
  EXPECT_TRUE(grid.Query(GeoPoint::Invalid(), point_at).empty());
  for (double radius_m : {-1.0, kNaN}) {
    RadiusGrid bad(radius_m);
    for (const GeoPoint& p : points) bad.Insert(p);
    EXPECT_TRUE(bad.Query(points[0], point_at).empty()) << radius_m;
  }
  // An infinite radius takes every point whose distance is finite.
  ExpectGridMatchesScan(points, {points[0], GeoPoint{89.9, 0.0, true}}, kInf);
}

// ----------------------------------------------------------------- QuadFlex

TEST(QuadFlex, FindsClosePairs) {
  // Two clusters of 3 points within meters of each other, far apart.
  std::vector<GeoPoint> points = {
      {57.0000, 9.9000, true}, {57.0001, 9.9001, true},
      {57.0000, 9.9001, true}, {57.3000, 10.2000, true},
      {57.3001, 10.2001, true}, {57.3000, 10.2001, true},
  };
  const std::vector<CandidatePair> pairs = QuadFlexBlock(points);
  // All 3 within-cluster pairs per cluster, none across.
  EXPECT_EQ(pairs.size(), 6u);
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
    EXPECT_EQ(i < 3, j < 3) << "cross-cluster pair " << i << "," << j;
  }
}

TEST(QuadFlex, PairsAreUniqueAndOrdered) {
  const std::vector<GeoPoint> points = RandomPoints(500, 21);
  const std::vector<CandidatePair> pairs = QuadFlexBlock(points);
  for (size_t k = 0; k < pairs.size(); ++k) {
    EXPECT_LT(pairs[k].first, pairs[k].second);
    if (k > 0) {
      EXPECT_LT(pairs[k - 1], pairs[k]);
    }
  }
}

TEST(QuadFlex, RespectsMaxRadius) {
  QuadFlexOptions options;
  options.max_radius_m = 100.0;
  const std::vector<GeoPoint> points = RandomPoints(800, 33);
  for (const auto& [i, j] : QuadFlexBlock(points, options)) {
    EXPECT_LE(EquirectangularMeters(points[i], points[j]),
              options.max_radius_m * 1.001);
  }
}

TEST(QuadFlex, NeighborComparisonFindsBoundaryPairs) {
  // Points straddling a quadtree split line still pair when neighbor
  // comparison is on.
  QuadFlexOptions options;
  options.leaf_capacity = 2;
  options.compare_neighbor_leaves = true;
  std::vector<GeoPoint> points = {
      {57.0000, 9.9000, true},  {57.0001, 9.9001, true},
      {57.00005, 9.90005, true}, {57.1, 10.0, true},
      {57.2, 10.1, true},        {56.9, 9.7, true},
      {56.8, 9.6, true},
  };
  const std::vector<CandidatePair> with = QuadFlexBlock(points, options);
  options.compare_neighbor_leaves = false;
  const std::vector<CandidatePair> without = QuadFlexBlock(points, options);
  EXPECT_GE(with.size(), without.size());
  // The three near-identical points must all pair with each other.
  size_t close_pairs = 0;
  for (const auto& [i, j] : with) {
    if (i < 3 && j < 3) ++close_pairs;
  }
  EXPECT_EQ(close_pairs, 3u);
}

TEST(QuadFlex, InvalidPointsNeverPair) {
  std::vector<GeoPoint> points = {
      {57.0, 9.9, true}, GeoPoint::Invalid(), {57.0, 9.9, true}};
  for (const auto& [i, j] : QuadFlexBlock(points)) {
    EXPECT_NE(i, 1u);
    EXPECT_NE(j, 1u);
  }
}

TEST(QuadFlex, BlockPointsUsesQuadFlexWhenAnyPointHasCoordinates) {
  std::vector<GeoPoint> points = RandomPoints(400, 41);
  const char* blocker = nullptr;
  EXPECT_EQ(BlockPoints(points, &blocker), QuadFlexBlock(points));
  EXPECT_STREQ(blocker, "quadflex");
  // A coordinate-less first (or last) record does not turn the choice
  // into all n(n-1)/2 pairs.
  points.front() = GeoPoint::Invalid();
  EXPECT_EQ(BlockPoints(points, &blocker), QuadFlexBlock(points));
  EXPECT_STREQ(blocker, "quadflex");
  points.back() = GeoPoint::Invalid();
  EXPECT_EQ(BlockPoints(points, &blocker), QuadFlexBlock(points));
  EXPECT_STREQ(blocker, "quadflex");
  // Without any coordinates every pair is a candidate.
  const std::vector<GeoPoint> none(30, GeoPoint::Invalid());
  EXPECT_EQ(BlockPoints(none, &blocker), CartesianBlock(30));
  EXPECT_STREQ(blocker, "cartesian");
}

TEST(QuadFlex, CartesianBlockCounts) {
  EXPECT_EQ(CartesianBlock(0).size(), 0u);
  EXPECT_EQ(CartesianBlock(1).size(), 0u);
  EXPECT_EQ(CartesianBlock(4).size(), 6u);
  // The Restaurants dataset size of the paper: 864 → 372,816 pairs.
  EXPECT_EQ(CartesianBlock(864).size(), 372816u);
}

}  // namespace
}  // namespace skyex::geo
