// Pins the serving bootstrap to the full-matrix calibration it replaced.
// BootstrapLinkService and BootstrapShardedLinkServices extract only the
// LGM-X columns the model's preference reads and label that compact
// matrix with the projected preference. The reference below keeps the
// old path frozen: every column (LgmXExtractor::Extract), SkyExT::Label
// with the schema model, then the IncrementalLinker constructor on the
// full matrix. The served linkers must calibrate the same threshold key
// and link every arrival to the same records with the same scores and
// feature rows; the audit log (every attempt sampled) carries what each
// served linker decided.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/ground_truth.h"
#include "data/northdk_generator.h"
#include "eval/sampling.h"
#include "features/feature_schema.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "quality/audit_log.h"
#include "quality/quality.h"
#include "serve/service.h"
#include "shard/shard_map.h"

namespace skyex {
namespace {

constexpr size_t kStore = 1700;
constexpr size_t kWorld = 2000;

// A store, the records arriving after it, and a model trained on the
// store the way `skyex train` trains one.
struct World {
  data::Dataset store;
  std::vector<data::SpatialEntity> arrivals;
  std::string model_text;
  // The frozen full-matrix calibration of the store.
  std::vector<size_t> accepted;
  ml::FeatureMatrix full;
};

const World& TheWorld() {
  static const World* world = [] {
    auto* w = new World;
    data::NorthDkOptions options;
    options.num_entities = kWorld;
    const data::Dataset all = data::GenerateNorthDk(options);
    w->store.entities.assign(all.entities.begin(),
                             all.entities.begin() + kStore);
    w->arrivals.assign(all.entities.begin() + kStore, all.entities.end());

    const std::vector<geo::CandidatePair> pairs =
        geo::BlockPoints(w->store.Points());
    const features::LgmXExtractor extractor =
        features::LgmXExtractor::FromCorpus(w->store);
    w->full = extractor.Extract(w->store, pairs);
    const std::vector<uint8_t> labels = data::LabelPairs(w->store, pairs);
    const std::vector<size_t> all_rows = core::AllRows(pairs.size());
    const auto split = eval::RandomSplit(pairs.size(), 0.04, 42);
    const core::SkyExTModel model =
        core::SkyExT().Train(w->full, labels, split.train, &all_rows);
    w->model_text = core::SaveModel(model);

    const std::vector<uint8_t> predicted =
        core::SkyExT::Label(w->full, all_rows, model);
    for (size_t r = 0; r < predicted.size(); ++r) {
      if (predicted[r]) w->accepted.push_back(r);
    }
    return w;
  }();
  return *world;
}

core::SkyExTModel LoadedModel() {
  auto model = core::LoadModel(TheWorld().model_text);
  if (!model.has_value()) {
    ADD_FAILURE() << "the saved model does not load";
    return {};
  }
  return std::move(*model);
}

// The pre-projection bootstrap: the constructor calibrates on the full
// matrix's accepted rows.
core::IncrementalLinker ReferenceLinker() {
  const World& w = TheWorld();
  return core::IncrementalLinker(
      w.store, features::LgmXExtractor::FromCorpus(w.store), LoadedModel(),
      w.full, w.accepted);
}

// Runs `body` with every link attempt captured into an audit log and
// returns the records it wrote, in order.
template <typename Body>
std::vector<quality::AuditRecord> Captured(const std::string& name,
                                           Body body) {
  quality::Runtime& runtime = quality::Runtime::Global();
  runtime.Disable();
  quality::QualityOptions options;
  options.audit.path = ::testing::TempDir() + "/bootstrap_projection_" +
                       name + ".audit";
  options.audit.sample_every = 1;
  options.audit.queue_capacity = 8 * kWorld;  // never drops
  std::string error;
  EXPECT_TRUE(runtime.Enable(options, TheWorld().model_text,
                             features::LgmXFeatureCount(),
                             features::LgmXFeatureNames(), &error))
      << error;
  body();
  runtime.Disable();
  quality::AuditLogHeader header;
  std::vector<quality::AuditRecord> records;
  quality::AuditReadStats stats;
  EXPECT_TRUE(quality::ReadAuditLog(options.audit.path, &header, &records,
                                    &stats, &error))
      << error;
  std::remove(options.audit.path.c_str());
  return records;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Every scored candidate, with its verdict, score and feature row, and
// every prefilter drop, in candidate order.
void ExpectSameDecisions(const quality::MatchCapture& got,
                         const quality::MatchCapture& want,
                         const std::string& where) {
  ASSERT_EQ(got.decisions.size(), want.decisions.size()) << where;
  for (size_t d = 0; d < got.decisions.size(); ++d) {
    const quality::CandidateDecision& g = got.decisions[d];
    const quality::CandidateDecision& x = want.decisions[d];
    EXPECT_EQ(g.candidate_id, x.candidate_id) << where;
    EXPECT_EQ(g.accepted, x.accepted) << where;
    EXPECT_EQ(g.scored, x.scored) << where;
    EXPECT_EQ(std::memcmp(&g.score, &x.score, sizeof(double)), 0) << where;
    EXPECT_TRUE(SameBits(g.features, x.features)) << where;
  }
}

TEST(ProjectedBootstrapTest, UnshardedMatchesTheFullMatrixReference) {
  const World& w = TheWorld();
  ASSERT_FALSE(w.accepted.empty());
  core::IncrementalLinker reference = ReferenceLinker();
  std::string error;
  const std::unique_ptr<serve::LinkService> service =
      serve::BootstrapLinkService(w.store, LoadedModel(), {}, &error);
  ASSERT_NE(service, nullptr) << error;

  std::vector<serve::LinkResult> results;
  const std::vector<quality::AuditRecord> records =
      Captured("unsharded", [&] { results = service->LinkMany(w.arrivals); });
  ASSERT_EQ(records.size(), w.arrivals.size());
  ASSERT_EQ(results.size(), w.arrivals.size());

  size_t links = 0;
  for (size_t k = 0; k < w.arrivals.size(); ++k) {
    const std::string where = "arrival " + std::to_string(k);
    quality::MatchCapture want;
    const std::vector<core::ScoredMatch> matches =
        reference.MatchRecord(w.arrivals[k], nullptr, &want);
    reference.Append(w.arrivals[k]);
    ASSERT_FALSE(want.threshold_key.empty());
    EXPECT_TRUE(SameBits(records[k].capture.threshold_key,
                         want.threshold_key))
        << where;
    ExpectSameDecisions(records[k].capture, want, where);
    std::multiset<size_t> served;
    for (const serve::LinkedRecord& link : results[k].links) {
      served.insert(link.record);
    }
    std::multiset<size_t> expected;
    for (const core::ScoredMatch& m : matches) expected.insert(m.index);
    EXPECT_EQ(served, expected) << where;
    links += matches.size();
  }
  EXPECT_GT(links, 0u);
}

TEST(ProjectedBootstrapTest, TwoShardsMatchTheFullMatrixReference) {
  const World& w = TheWorld();
  const core::IncrementalLinker reference = ReferenceLinker();
  const std::vector<std::vector<size_t>> partitions =
      shard::ShardMap(w.store.Points(), 2).Partitions();
  ASSERT_EQ(partitions.size(), 2u);
  std::string error;
  const std::vector<std::unique_ptr<serve::LinkService>> services =
      serve::BootstrapShardedLinkServices(w.store, LoadedModel(), {},
                                          partitions, nullptr, &error);
  ASSERT_EQ(services.size(), 2u) << error;

  // Each arrival is matched on both shards without being stored, so
  // shard-local indices map back through the partitions.
  std::vector<std::map<size_t, double>> served(w.arrivals.size());
  const std::vector<quality::AuditRecord> records = Captured("sharded", [&] {
    for (size_t k = 0; k < w.arrivals.size(); ++k) {
      for (size_t s = 0; s < services.size(); ++s) {
        for (const serve::ScoredLink& link :
             services[s]->MatchScored(w.arrivals[k], /*persist=*/false)) {
          served[k][partitions[s][link.record]] = link.score;
        }
      }
    }
  });
  ASSERT_EQ(records.size(), 2 * w.arrivals.size());

  size_t links = 0;
  for (size_t k = 0; k < w.arrivals.size(); ++k) {
    const std::string where = "arrival " + std::to_string(k);
    quality::MatchCapture want;
    const std::vector<core::ScoredMatch> matches =
        reference.MatchRecord(w.arrivals[k], nullptr, &want);
    ASSERT_FALSE(want.threshold_key.empty());
    for (size_t s = 0; s < services.size(); ++s) {
      const quality::AuditRecord& record = records[2 * k + s];
      EXPECT_EQ(record.shard_id, s) << where;
      EXPECT_TRUE(SameBits(record.capture.threshold_key, want.threshold_key))
          << where << " shard " << s;
    }
    std::map<size_t, double> expected;
    for (const core::ScoredMatch& m : matches) expected[m.index] = m.score;
    ASSERT_EQ(served[k].size(), expected.size()) << where;
    for (const auto& [index, score] : expected) {
      const auto it = served[k].find(index);
      ASSERT_NE(it, served[k].end()) << where << " record " << index;
      EXPECT_EQ(std::memcmp(&it->second, &score, sizeof(double)), 0)
          << where << " record " << index;
    }
    links += matches.size();
  }
  EXPECT_GT(links, 0u);
}

}  // namespace
}  // namespace skyex
