// Pins the serving linker's candidate index (geo::RadiusGrid behind
// IncrementalLinker::MatchRecord) to the scan it replaced: for every
// arriving record, the candidates MatchRecord decides on are exactly the
// stored records that a distance test over the whole store accepts, and
// they keep doing so while records are appended.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "geo/distance.h"
#include "geo/radius_grid.h"
#include "par/thread_pool.h"
#include "quality/audit_log.h"

namespace skyex::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// MatchRecord's candidate scan before the index, frozen: the distance to
// every stored record, kept when it lies in [0, radius_m]. The original
// fanned this loop out over the pool and concatenated the chunks in
// order, which yields exactly this serial loop's list.
std::vector<size_t> FrozenScan(const data::Dataset& store,
                               const geo::GeoPoint& location,
                               double radius_m) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < store.size(); ++i) {
    const double d = geo::EquirectangularMeters(location, store[i].location);
    if (d >= 0.0 && d <= radius_m) candidates.push_back(i);
  }
  return candidates;
}

data::SpatialEntity At(const data::SpatialEntity& like, double lat,
                       double lon, bool valid = true) {
  data::SpatialEntity e = like;
  e.location = geo::GeoPoint{lat, lon, valid};
  return e;
}

class CandidateIndex : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::NorthDkOptions options;
    options.num_entities = 1500;
    options.seed = 43;
    prepared_ = new PreparedData(PrepareNorthDk(options));
    const auto split = eval::RandomSplit(prepared_->pairs.size(), 0.15, 5);
    model_ = new SkyExTModel(SkyExT().Train(
        prepared_->features, prepared_->pairs.labels, split.train));
    accepted_ = new std::vector<size_t>();
    for (size_t r : split.train) {
      if (prepared_->pairs.labels[r]) accepted_->push_back(r);
    }
  }
  static void TearDownTestSuite() {
    delete prepared_;
    delete model_;
    delete accepted_;
    prepared_ = nullptr;
    model_ = nullptr;
    accepted_ = nullptr;
  }

  static std::unique_ptr<IncrementalLinker> MakeLinker(
      data::Dataset store, double radius_m) {
    IncrementalLinkerOptions options;
    options.radius_m = radius_m;
    options.prefilter_threshold = 0.1;  // the serving default
    return std::make_unique<IncrementalLinker>(
        std::move(store),
        features::LgmXExtractor::FromCorpus(prepared_->dataset),
        SkyExTModel{model_->preference->Clone(), model_->cutoff_ratio, {}, {},
                    0.0},
        prepared_->features, *accepted_, options);
  }

  // Matches `arrival` against the linker's store, checks its candidate
  // list against the frozen scan and its links against the uncaptured
  // path, then appends it. Returns the number of candidates.
  static size_t MatchAndAppend(IncrementalLinker* linker,
                               const data::SpatialEntity& arrival,
                               double radius_m) {
    const data::Dataset& store = linker->dataset();
    std::vector<size_t> expected;
    if (arrival.location.valid) {
      expected = FrozenScan(store, arrival.location, radius_m);
    } else {
      // Unchanged cartesian fallback: every stored record.
      for (size_t i = 0; i < store.size(); ++i) expected.push_back(i);
    }
    quality::MatchCapture capture;
    obs::LinkStats stats;
    const std::vector<ScoredMatch> captured =
        linker->MatchRecord(arrival, &stats, &capture);
    // With capture on, every candidate leaves exactly one decision
    // (dropped by the prefilter or scored).
    std::vector<size_t> decided;
    for (const quality::CandidateDecision& d : capture.decisions) {
      decided.push_back(d.candidate_index);
    }
    std::sort(decided.begin(), decided.end());
    EXPECT_EQ(decided, expected)
        << "arrival at (" << arrival.location.lat << ", "
        << arrival.location.lon << ") valid=" << arrival.location.valid
        << " over " << store.size() << " records";
    EXPECT_EQ(stats.candidates, expected.size());
    const std::vector<ScoredMatch> plain = linker->MatchRecord(arrival);
    EXPECT_EQ(plain.size(), captured.size());
    for (size_t k = 0; k < std::min(plain.size(), captured.size()); ++k) {
      EXPECT_EQ(plain[k].index, captured[k].index);
      EXPECT_EQ(plain[k].score, captured[k].score);
    }
    linker->Append(arrival);
    return expected.size();
  }

  static PreparedData* prepared_;
  static SkyExTModel* model_;
  static std::vector<size_t>* accepted_;
};

PreparedData* CandidateIndex::prepared_ = nullptr;
SkyExTModel* CandidateIndex::model_ = nullptr;
std::vector<size_t>* CandidateIndex::accepted_ = nullptr;

TEST_F(CandidateIndex, MatchRecordEqualsFrozenScanWhileAppending) {
  const data::Dataset& world = prepared_->dataset;
  const double radius_m = 200.0;
  const double edge = geo::RadiusGrid(radius_m).cell_deg();
  const data::SpatialEntity& like = world[0];

  // Records the parsers reject but code can construct, stored from the
  // start so that every later query has to visit them.
  data::Dataset store = world;
  for (const geo::GeoPoint& p : std::vector<geo::GeoPoint>{
           {90.0005, 10.0, true}, {57.0, 180.0005, true},
           {kNaN, 9.9, true}, {57.0, kInf, true}, {57.05, 9.92, false}}) {
    store.entities.push_back(At(like, p.lat, p.lon, p.valid));
  }
  std::unique_ptr<IncrementalLinker> linker = MakeLinker(store, radius_m);

  std::vector<data::SpatialEntity> arrivals;
  for (size_t k = 0; k < 80; ++k) {
    // Perturbed copies of stored records: the serving workload.
    data::SpatialEntity e = world[(k * 37) % world.size()];
    e.id = 900000 + k;
    e.location.lat += 3e-5 * static_cast<double>(k % 7);
    e.location.lon -= 2e-5 * static_cast<double>(k % 5);
    arrivals.push_back(e);
  }
  for (size_t k = 0; k < 20; ++k) {
    // Duplicate coordinates of stored records and of earlier arrivals.
    arrivals.push_back(world[(k * 53) % world.size()]);
    arrivals.push_back(arrivals[k]);
  }
  for (int a = 0; a < 6; ++a) {
    // Records on cell edges, and one ulp off them.
    const double lat = (std::floor(57.04 / edge) + a) * edge;
    const double lon = (std::floor(9.91 / edge) + 2 * a) * edge;
    arrivals.push_back(At(like, lat, lon));
    arrivals.push_back(At(like, std::nextafter(lat, 0.0), lon));
    arrivals.push_back(At(like, lat, std::nextafter(lon, 0.0)));
  }
  for (const geo::GeoPoint& p : std::vector<geo::GeoPoint>{
           // Near and at the poles, where the index tests every record.
           {89.9999, 10.0, true}, {90.0, -170.0, true}, {89.9995, 10.0, true},
           {-90.0, 0.0, true}, {-89.9999, 45.0, true},
           // Out of range, non-finite and at the antimeridian.
           {90.001, 10.0, true}, {57.0, 179.9999, true},
           {57.0, -179.9999, true}, {57.0, 180.0, true}, {91.0, 200.0, true},
           {kNaN, kNaN, true}, {-kInf, 9.9, true},
           // No coordinates: the cartesian fallback.
           {0.0, 0.0, false}}) {
    arrivals.push_back(At(like, p.lat, p.lon, p.valid));
  }

  size_t candidates = 0;
  for (const data::SpatialEntity& arrival : arrivals) {
    candidates += MatchAndAppend(linker.get(), arrival, radius_m);
  }
  EXPECT_GT(candidates, arrivals.size());
  EXPECT_EQ(linker->dataset().size(), store.size() + arrivals.size());
}

TEST_F(CandidateIndex, ExactRadiusAndZeroRadiusEqualFrozenScan) {
  const data::Dataset& world = prepared_->dataset;
  // A radius equal to the computed distance between two stored records:
  // the farther one sits exactly on it.
  const geo::GeoPoint& a = world[10].location;
  size_t far = 0;
  double radius_m = 0.0;
  for (size_t i = 0; i < world.size(); ++i) {
    const double d = geo::EquirectangularMeters(a, world[i].location);
    if (d > radius_m && d < 400.0) {
      radius_m = d;
      far = i;
    }
  }
  ASSERT_GT(radius_m, 0.0);
  std::unique_ptr<IncrementalLinker> linker = MakeLinker(world, radius_m);
  const std::vector<size_t> on_radius =
      FrozenScan(world, world[10].location, radius_m);
  ASSERT_NE(std::find(on_radius.begin(), on_radius.end(), far),
            on_radius.end());
  for (size_t k = 10; k < 400; k += 13) {
    MatchAndAppend(linker.get(), world[k], radius_m);
  }

  // Radius 0: only records at the very same coordinates are candidates.
  linker = MakeLinker(world, 0.0);
  size_t candidates = 0;
  for (size_t k = 0; k < 200; k += 7) {
    candidates += MatchAndAppend(linker.get(), world[k], 0.0);
  }
  EXPECT_GE(candidates, 200u / 7);  // at least each record's own copy
}

// A coordinate-less arrival takes every stored record as a candidate;
// above 2,048 of them the scoring fans out over the pool. Capturing
// must not change that path's answer: the decisions come out in
// candidate order and the links and scores equal the uncaptured call's.
TEST_F(CandidateIndex, CapturedParallelScoringKeepsCandidateOrder) {
  const data::Dataset& world = prepared_->dataset;
  data::Dataset store = world;
  for (const data::SpatialEntity& e : world.entities) {
    data::SpatialEntity copy = e;
    copy.id += 1000000;
    store.entities.push_back(copy);
  }
  ASSERT_GE(store.size(), 2048u);
  IncrementalLinkerOptions options;  // prefilter off: every record scores
  IncrementalLinker linker(
      store, features::LgmXExtractor::FromCorpus(world),
      SkyExTModel{model_->preference->Clone(), model_->cutoff_ratio, {}, {},
                  0.0},
      prepared_->features, *accepted_, options);
  const data::SpatialEntity arrival = At(world[7], 0.0, 0.0, false);

  par::ThreadPool::SetGlobalThreads(2);
  quality::MatchCapture capture;
  const std::vector<ScoredMatch> captured =
      linker.MatchRecord(arrival, nullptr, &capture);
  const std::vector<ScoredMatch> plain = linker.MatchRecord(arrival);
  par::ThreadPool::SetGlobalThreads(0);

  ASSERT_EQ(capture.decisions.size(), store.size());
  size_t accepted = 0;
  for (size_t k = 0; k < capture.decisions.size(); ++k) {
    const quality::CandidateDecision& decision = capture.decisions[k];
    ASSERT_EQ(decision.candidate_index, k);
    EXPECT_TRUE(decision.scored);
    if (decision.accepted) {
      ASSERT_LT(accepted, captured.size());
      EXPECT_EQ(captured[accepted].index, k);
      EXPECT_EQ(captured[accepted].score, decision.score);
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, captured.size());
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(plain.size(), captured.size());
  for (size_t k = 0; k < plain.size(); ++k) {
    EXPECT_EQ(plain[k].index, captured[k].index);
    EXPECT_EQ(plain[k].score, captured[k].score);
  }
}

}  // namespace
}  // namespace skyex::core
