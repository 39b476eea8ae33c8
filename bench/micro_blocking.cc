// Micro-benchmarks of the spatial substrate: distances, quadtree
// construction/queries, QuadFlex blocking, the serving candidate index
// against a full scan, and LGM-X feature extraction.

#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "data/northdk_generator.h"
#include "features/lgm_x.h"
#include "geo/distance.h"
#include "geo/quadflex.h"
#include "geo/quadtree.h"
#include "geo/radius_grid.h"

namespace {

std::vector<skyex::geo::GeoPoint> ClusteredPoints(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> lat(57.05, 0.01);
  std::normal_distribution<double> lon(9.92, 0.02);
  std::vector<skyex::geo::GeoPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({lat(rng), lon(rng), true});
  }
  return points;
}

void BM_Haversine(benchmark::State& state) {
  const skyex::geo::GeoPoint a{57.0, 9.9, true};
  const skyex::geo::GeoPoint b{57.01, 9.95, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(skyex::geo::HaversineMeters(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_QuadtreeBuild(benchmark::State& state) {
  const auto points = ClusteredPoints(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    skyex::geo::Quadtree tree(points, {});
    benchmark::DoNotOptimize(tree.num_leaves());
  }
}
BENCHMARK(BM_QuadtreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_QuadFlexBlock(benchmark::State& state) {
  const auto points = ClusteredPoints(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(skyex::geo::QuadFlexBlock(points));
  }
}
BENCHMARK(BM_QuadFlexBlock)->Arg(1000)->Arg(5000)->Arg(20000);

// One Gaussian city whose spread grows with sqrt(n), as GenerateNorthDk
// scales its cities: points per km² stay fixed across sizes, so the
// candidates per query stay constant and only the lookup cost moves.
// The first `n` points are the store, the next `queries` the queries.
std::vector<skyex::geo::GeoPoint> FixedDensityPoints(size_t n,
                                                     size_t queries,
                                                     uint64_t seed) {
  const double scale = std::sqrt(static_cast<double>(n) / 1000.0);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> lat(57.05, 0.01 * scale);
  std::normal_distribution<double> lon(9.92, 0.02 * scale);
  std::vector<skyex::geo::GeoPoint> points;
  points.reserve(n + queries);
  for (size_t i = 0; i < n + queries; ++i) {
    points.push_back({lat(rng), lon(rng), true});
  }
  return points;
}

constexpr double kServeRadiusM = 200.0;  // IncrementalLinkerOptions default
constexpr size_t kQueries = 1024;

// Candidate lookup through the serving index (geo::RadiusGrid).
void BM_RadiusGridQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = FixedDensityPoints(n, kQueries, 7);
  skyex::geo::RadiusGrid grid(kServeRadiusM);
  for (size_t i = 0; i < n; ++i) grid.Insert(points[i]);
  const auto point_at = [&points](size_t i) -> const skyex::geo::GeoPoint& {
    return points[i];
  };
  size_t q = 0;
  size_t candidates = 0;
  size_t tested = 0;
  for (auto _ : state) {
    size_t query_tested = 0;
    const std::vector<size_t> found =
        grid.Query(points[n + q % kQueries], point_at, &query_tested);
    benchmark::DoNotOptimize(found.data());
    candidates += found.size();
    tested += query_tested;
    ++q;
  }
  const double queries = static_cast<double>(q);
  state.counters["candidates"] = static_cast<double>(candidates) / queries;
  state.counters["tested"] = static_cast<double>(tested) / queries;
  state.counters["cells"] = static_cast<double>(grid.occupied_cells());
}
BENCHMARK(BM_RadiusGridQuery)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// The scan the index replaced: the distance to every stored point.
void BM_FullScanQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = FixedDensityPoints(n, kQueries, 7);
  size_t q = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    const skyex::geo::GeoPoint& center = points[n + q % kQueries];
    std::vector<size_t> found;
    for (size_t i = 0; i < n; ++i) {
      const double d = skyex::geo::EquirectangularMeters(center, points[i]);
      if (d >= 0.0 && d <= kServeRadiusM) found.push_back(i);
    }
    benchmark::DoNotOptimize(found.data());
    candidates += found.size();
    ++q;
  }
  state.counters["candidates"] =
      static_cast<double>(candidates) / static_cast<double>(q);
}
BENCHMARK(BM_FullScanQuery)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_LgmXRow(benchmark::State& state) {
  skyex::data::NorthDkOptions options;
  options.num_entities = 200;
  const auto dataset = skyex::data::GenerateNorthDk(options);
  const auto extractor =
      skyex::features::LgmXExtractor::FromCorpus(dataset);
  std::vector<double> row(extractor.feature_count());
  size_t i = 0;
  for (auto _ : state) {
    extractor.ExtractRow(dataset[i % 200], dataset[(i + 13) % 200],
                         row.data());
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
}
BENCHMARK(BM_LgmXRow);

}  // namespace
