// Pins the degraded fallback (serve::LinkService::LinkDegraded) to the
// scan it replaced. The fallback used to keep a second copy of every
// record with its normalised name and scan the whole copy per entity;
// it now reads the linker's own records and finds its candidates
// through the linker's geo::RadiusGrid. For every query, its links and
// record_index must equal the frozen scan's over the same records: on a
// North-DK world while records are appended, with coordinate-less and
// non-finite records in the store, at the exact 500 m boundary, across
// ±180° longitude and near and across the poles. A last case reads
// concurrently with appends.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "geo/distance.h"
#include "serve/service.h"
#include "text/jaro.h"
#include "text/normalize.h"

namespace skyex {
namespace {

// The degraded matcher before it read the linker's records, frozen: one
// entry per record with its normalised name, Haversine gate at 500 m
// when both sides have coordinates, then Jaro-Winkler >= 0.9.
struct DegradedEntry {
  uint64_t id = 0;
  std::string source;
  std::string name;
  std::string normalized_name;
  geo::GeoPoint location;
};

DegradedEntry MakeDegradedEntry(const data::SpatialEntity& e) {
  DegradedEntry entry;
  entry.id = e.id;
  entry.source = std::string(data::SourceName(e.source));
  entry.name = e.name;
  entry.normalized_name = text::Normalize(e.name);
  entry.location = e.location;
  return entry;
}

serve::LinkResult FrozenScan(const std::vector<DegradedEntry>& index,
                             const data::SpatialEntity& entity) {
  serve::LinkResult result;
  result.degraded = true;
  result.record_index = index.size();
  const std::string normalized = text::Normalize(entity.name);
  for (size_t i = 0; i < index.size(); ++i) {
    const DegradedEntry& entry = index[i];
    if (entity.location.valid && entry.location.valid &&
        geo::HaversineMeters(entity.location, entry.location) > 500.0) {
      continue;
    }
    const double f_sim =
        text::JaroWinklerSimilarity(normalized, entry.normalized_name);
    if (f_sim >= 0.9) {
      result.links.push_back(
          serve::LinkedRecord{i, entry.id, entry.name, entry.source});
    }
  }
  result.merged = entity;
  return result;
}

data::SpatialEntity At(data::SpatialEntity e, double lat, double lon,
                       bool valid = true) {
  e.location = geo::GeoPoint{lat, lon, valid};
  return e;
}

class DegradedEquiv : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::NorthDkOptions options;
    options.num_entities = 900;
    options.seed = 29;
    prepared_ = new core::PreparedData(core::PrepareNorthDk(options));
    const auto split = eval::RandomSplit(prepared_->pairs.size(), 0.2, 7);
    model_ = new core::SkyExTModel(core::SkyExT().Train(
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

  static const data::Dataset& World() { return prepared_->dataset; }

  // The first `count` records of the world.
  static data::Dataset Prefix(size_t count) {
    data::Dataset store;
    store.entities.assign(World().entities.begin(),
                          World().entities.begin() + count);
    return store;
  }

  // A service over `store` plus the frozen scan's copy of its records.
  struct Harness {
    std::unique_ptr<serve::LinkService> service;
    std::vector<DegradedEntry> mirror;

    void Append(const std::vector<data::SpatialEntity>& entities) {
      service->LinkMany(entities);
      for (const data::SpatialEntity& e : entities) {
        mirror.push_back(MakeDegradedEntry(e));
      }
    }

    // LinkDegraded against the frozen scan for every query. Returns the
    // number of links found.
    size_t Check(const std::vector<data::SpatialEntity>& queries) const {
      const std::vector<serve::LinkResult> got =
          service->LinkDegraded(queries);
      EXPECT_EQ(got.size(), queries.size());
      size_t links = 0;
      for (size_t q = 0; q < std::min(got.size(), queries.size()); ++q) {
        const serve::LinkResult want = FrozenScan(mirror, queries[q]);
        const geo::GeoPoint& at = queries[q].location;
        EXPECT_EQ(got[q].record_index, want.record_index);
        EXPECT_TRUE(got[q].degraded);
        EXPECT_EQ(got[q].merged.name, queries[q].name);
        EXPECT_EQ(got[q].links.size(), want.links.size())
            << "query '" << queries[q].name << "' at (" << at.lat << ", "
            << at.lon << ") valid=" << at.valid;
        for (size_t k = 0;
             k < std::min(got[q].links.size(), want.links.size()); ++k) {
          EXPECT_EQ(got[q].links[k].record, want.links[k].record)
              << "query '" << queries[q].name << "' link " << k;
          EXPECT_EQ(got[q].links[k].id, want.links[k].id);
          EXPECT_EQ(got[q].links[k].name, want.links[k].name);
          EXPECT_EQ(got[q].links[k].source, want.links[k].source);
        }
        links += want.links.size();
      }
      return links;
    }
  };

  static Harness Make(data::Dataset store) {
    Harness h;
    for (const data::SpatialEntity& e : store.entities) {
      h.mirror.push_back(MakeDegradedEntry(e));
    }
    core::IncrementalLinkerOptions options;
    options.prefilter_threshold = 0.1;  // the serving default
    h.service = std::make_unique<serve::LinkService>(
        core::IncrementalLinker(
            std::move(store), features::LgmXExtractor::FromCorpus(World()),
            core::SkyExTModel{model_->preference->Clone(),
                              model_->cutoff_ratio, {}, {}, 0.0},
            prepared_->features, *accepted_, options),
        "");
    return h;
  }

  static core::PreparedData* prepared_;
  static core::SkyExTModel* model_;
  static std::vector<size_t>* accepted_;
};

core::PreparedData* DegradedEquiv::prepared_ = nullptr;
core::SkyExTModel* DegradedEquiv::model_ = nullptr;
std::vector<size_t>* DegradedEquiv::accepted_ = nullptr;

TEST_F(DegradedEquiv, NorthDkWorldWhileAppending) {
  Harness h = Make(Prefix(500));
  size_t located_links = 0;
  size_t coordinate_less_links = 0;
  for (size_t begin = 500; begin < World().size(); begin += 25) {
    const size_t end = std::min(begin + 25, World().size());
    std::vector<data::SpatialEntity> batch(
        World().entities.begin() + begin, World().entities.begin() + end);
    std::vector<data::SpatialEntity> bare;
    for (const data::SpatialEntity& e : batch) {
      bare.push_back(At(e, 0.0, 0.0, /*valid=*/false));
    }
    located_links += h.Check(batch);
    coordinate_less_links += h.Check(bare);
    h.Append(batch);
  }
  EXPECT_EQ(h.service->record_count(), World().size());
  // Not vacuous: the world's duplicate clusters link on both paths.
  EXPECT_GT(located_links, 50u);
  EXPECT_GT(coordinate_less_links, located_links);
}

TEST_F(DegradedEquiv, CoordinateLessAndNonFiniteRecordsInTheStore) {
  data::Dataset store = Prefix(400);
  // Every third record loses its coordinates; those are tested by name
  // alone from any query.
  for (size_t i = 0; i < store.size(); i += 3) {
    store.entities[i].location = geo::GeoPoint::Invalid();
  }
  Harness h = Make(std::move(store));
  const data::SpatialEntity& like = World()[1];
  // Valid flags over non-finite or out-of-range coordinates get no grid
  // cell, so every query tests them: HaversineMeters wraps longitude,
  // which puts (57, 200) 15 m from (57, -160.0005).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  h.Append({At(like, nan, 9.9), At(like, 57.0, nan), At(like, 95.0, 9.9),
            At(like, 57.0, 200.0), At(like, 0.0, 0.0, /*valid=*/false)});
  std::vector<data::SpatialEntity> queries;
  for (size_t i = 0; i < 60; ++i) {
    queries.push_back(World()[i]);
    queries.push_back(At(World()[i], 0.0, 0.0, /*valid=*/false));
  }
  queries.push_back(like);
  queries.push_back(At(like, nan, nan));
  queries.push_back(At(like, 95.0, 9.9));
  queries.push_back(At(like, 57.0, 9.9, /*valid=*/false));
  queries.push_back(At(like, 57.0, -160.0005));
  EXPECT_GT(h.Check(queries), 0u);
  const serve::LinkResult last = h.service->LinkDegraded({queries.back()})[0];
  bool wrapped = false;
  for (const serve::LinkedRecord& link : last.links) {
    wrapped = wrapped || link.record == 403;
  }
  EXPECT_TRUE(wrapped);
}

// The last latitude (or longitude) north (east) of `center` that
// HaversineMeters puts within 500 m, found by bisecting doubles.
double LastWithin500(const geo::GeoPoint& center, bool east) {
  const auto distance = [&](double x) {
    const geo::GeoPoint p{east ? center.lat : x, east ? x : center.lon, true};
    return geo::HaversineMeters(center, p);
  };
  double lo = east ? center.lon : center.lat;
  double hi = lo + 1.0;
  while (true) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid <= lo || mid >= hi) break;
    (distance(mid) <= 500.0 ? lo : hi) = mid;
  }
  return lo;
}

TEST_F(DegradedEquiv, ExactRadiusAndOneUlpEitherSide) {
  Harness h = Make(Prefix(400));
  const data::SpatialEntity& like = World()[2];
  // Per centre and direction, three records: one ulp inside the last
  // point within 500 m, that point, and one ulp past it. The grid walks
  // its cells at every latitude but 88.5°, where the box spans more
  // cells than the store has records.
  const std::vector<double> latitudes = {0.0, 57.05, -33.9, 80.0, 88.5};
  std::vector<data::SpatialEntity> records;
  std::vector<data::SpatialEntity> queries;
  for (double lat : latitudes) {
    const geo::GeoPoint center{lat, 9.92, true};
    queries.push_back(At(like, center.lat, center.lon));
    for (bool east : {false, true}) {
      const double edge = LastWithin500(center, east);
      for (double x : {std::nextafter(edge, -1e9), edge,
                       std::nextafter(edge, 1e9)}) {
        records.push_back(At(like, east ? center.lat : x,
                             east ? x : center.lon));
      }
    }
  }
  h.Append(records);
  h.Check(queries);
  // Each centre links its two edge points and neither point past them.
  const std::vector<serve::LinkResult> results =
      h.service->LinkDegraded(queries);
  for (size_t c = 0; c < latitudes.size(); ++c) {
    std::vector<size_t> linked;
    for (const serve::LinkedRecord& link : results[c].links) {
      linked.push_back(link.record);
    }
    for (size_t direction = 0; direction < 2; ++direction) {
      const size_t edge = 400 + (c * 2 + direction) * 3 + 1;
      EXPECT_NE(std::find(linked.begin(), linked.end(), edge), linked.end())
          << "latitude " << latitudes[c] << " direction " << direction;
      EXPECT_EQ(std::find(linked.begin(), linked.end(), edge + 1),
                linked.end())
          << "latitude " << latitudes[c] << " direction " << direction;
    }
  }
}

TEST_F(DegradedEquiv, PairsAcrossTheAntimeridian) {
  Harness h = Make(Prefix(400));
  const data::SpatialEntity& like = World()[4];
  h.Append({At(like, 0.0, -179.999), At(like, 0.0, 179.999),
            At(like, 57.0, 179.9995), At(like, 57.0, -180.0),
            At(like, -40.0, -179.9999), At(like, 0.0, 179.99)});
  const std::vector<data::SpatialEntity> queries = {
      At(like, 0.0, 179.999),    At(like, 0.0, -179.999),
      At(like, 0.0, 180.0),      At(like, 0.0, -180.0),
      At(like, 57.0, -179.9995), At(like, -40.0, 179.9999),
      At(like, 0.0, 179.995),    At(like, 0.0, 179.98)};
  const size_t links = h.Check(queries);
  // The first query links across the line to (0, -179.999), 222 m off.
  const serve::LinkResult first = h.service->LinkDegraded({queries[0]})[0];
  bool across = false;
  for (const serve::LinkedRecord& link : first.links) {
    across = across || link.record == 400;
  }
  EXPECT_TRUE(across);
  EXPECT_GT(links, queries.size());
}

TEST_F(DegradedEquiv, PointsNearAndAcrossThePoles) {
  Harness h = Make(Prefix(400));
  const data::SpatialEntity& like = World()[6];
  std::vector<data::SpatialEntity> records;
  std::vector<data::SpatialEntity> queries;
  for (double pole : {90.0, -90.0}) {
    const double s = pole > 0 ? 1.0 : -1.0;
    for (double lon : {0.0, 45.0, 90.0, 180.0, -90.0, -135.0}) {
      records.push_back(At(like, s * 89.998, lon));
      records.push_back(At(like, s * 89.9999, lon));
      queries.push_back(At(like, s * 89.998, lon));
    }
    records.push_back(At(like, pole, 0.0));
    records.push_back(At(like, s * 89.99, 10.0));
    records.push_back(At(like, s * 89.9, 10.0));
    queries.push_back(At(like, pole, 77.0));
    queries.push_back(At(like, s * 89.99, 10.0));
    queries.push_back(At(like, s * 89.996, 10.0));
    queries.push_back(At(like, s * 89.9, 10.0));
  }
  h.Append(records);
  EXPECT_GT(h.Check(queries), queries.size());
  // (89.998, 0) and (89.998, 180) are 445 m apart across the pole.
  const serve::LinkResult r = h.service->LinkDegraded({queries[0]})[0];
  bool across = false;
  for (const serve::LinkedRecord& link : r.links) {
    across = across || link.record == 400 + 2 * 3;
  }
  EXPECT_TRUE(across);
}

// LinkDegraded and record_count() read while LinkMany appends: under
// ThreadSanitizer this is the records lock's race check; here every
// answer must describe a store of a size some append produced.
TEST_F(DegradedEquiv, ReadsRunConcurrentlyWithAppends) {
  const size_t initial = 500;
  const size_t appended = 120;
  Harness h = Make(Prefix(initial));
  std::vector<data::SpatialEntity> queries = {World()[10], World()[11],
                                              At(World()[12], 0, 0, false)};
  std::atomic<bool> done{false};
  std::thread degraded([&] {
    size_t last = initial;
    while (!done.load(std::memory_order_relaxed)) {
      for (const serve::LinkResult& r : h.service->LinkDegraded(queries)) {
        EXPECT_GE(r.record_index, last);
        EXPECT_LE(r.record_index, initial + appended);
        last = r.record_index;
        for (const serve::LinkedRecord& link : r.links) {
          EXPECT_LT(link.record, r.record_index);
        }
      }
    }
  });
  std::thread counter([&] {
    size_t last = initial;
    while (!done.load(std::memory_order_relaxed)) {
      const size_t count = h.service->record_count();
      EXPECT_GE(count, last);
      EXPECT_LE(count, initial + appended);
      last = count;
    }
  });
  for (size_t begin = initial; begin < initial + appended; begin += 4) {
    h.Append(std::vector<data::SpatialEntity>(
        World().entities.begin() + begin,
        World().entities.begin() + begin + 4));
  }
  done.store(true, std::memory_order_relaxed);
  degraded.join();
  counter.join();
  EXPECT_EQ(h.service->record_count(), initial + appended);
  h.Check(queries);
}

}  // namespace
}  // namespace skyex
