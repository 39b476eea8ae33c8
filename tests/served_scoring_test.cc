// Pins serving's scoring on the model's columns to the full-row scorer it
// replaced. The incremental linker scores every candidate on the LGM-X
// columns its preference reads and extracts the full 88-column row only
// for a decision a quality::MatchCapture keeps. The frozen scorer below
// keeps the old route: the full row (the schema-wide RowFromCache), the
// preference compiled against schema indices, and the lexicographic
// compare against the threshold key calibrated on the store's full
// matrix. With capture off, drift-only and audit, under both text kernel
// sets and at one and two shards, the served links, scores, decisions and
// audit records must equal it bit for bit, and the drift detector must
// observe the rows its old detector-side decimation picked.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
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
#include "features/sketch.h"
#include "geo/distance.h"
#include "geo/quadflex.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "quality/audit_log.h"
#include "quality/drift.h"
#include "quality/profile.h"
#include "quality/quality.h"
#include "serve/shard_api.h"
#include "serve/service.h"
#include "shard/router.h"
#include "skyline/preference.h"
#include "text/similarity_registry.h"

namespace skyex {
namespace {

constexpr size_t kStore = 1700;
constexpr size_t kWorld = 1940;
constexpr double kRadiusM = 200.0;   // IncrementalLinkerOptions' default
constexpr double kPrefilter = 0.1;   // skyex_serve's default
constexpr uint64_t kRowSampleEvery = 3;

// ctest runs each case in its own process, several at once.
std::string TempPath(const std::string& what) {
  return ::testing::TempDir() + "/served_scoring_" +
         std::to_string(getpid()) + "." + what;
}

// A store, the records arriving after it, a model trained on the store
// the way `skyex train` trains one, and its full-matrix calibration.
struct World {
  data::Dataset store;
  std::vector<data::SpatialEntity> arrivals;
  std::string model_text;
  ml::FeatureMatrix full;  // every LGM-X column of the blocked pairs
  std::vector<size_t> accepted;
  quality::ReferenceProfile profile;  // of `full`, for drift
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

    const skyline::CompiledPreference compiled =
        *skyline::Compile(*model.preference);
    std::vector<double> key(compiled.KeySize());
    std::vector<double> scores(w->full.rows);
    for (size_t r = 0; r < w->full.rows; ++r) {
      compiled.Key(w->full.Row(r), key.data());
      scores[r] = key[0];
    }
    w->profile = quality::BuildReferenceProfile(
        w->store, w->full, scores, quality::HashModelText(w->model_text));
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

// One candidate as the frozen scorer decides it. `row` holds every LGM-X
// column of a candidate that passed the prefilter, and nothing otherwise.
struct Decision {
  size_t index = 0;
  uint64_t id = 0;
  bool pass = false;
  double estimate = 0.0;
  bool accepted = false;
  double score = 0.0;
  std::vector<double> row;
};

// Serving's scorer before it scored on the model's columns, frozen.
// Candidates are the records within the radius, ascending, each scored
// when its sketch estimate reaches the prefilter threshold.
class FrozenScorer {
 public:
  FrozenScorer()
      : extractor_(features::LgmXExtractor::FromCorpus(TheWorld().store)),
        records_(TheWorld().store) {
    const World& w = TheWorld();
    compiled_ = *skyline::Compile(*LoadedModel().preference);
    const size_t key_size = compiled_.KeySize();
    std::vector<std::vector<double>> per_group(key_size);
    std::vector<double> key(key_size);
    for (size_t r : w.accepted) {
      compiled_.Key(w.full.Row(r), key.data());
      for (size_t g = 0; g < key_size; ++g) per_group[g].push_back(key[g]);
    }
    threshold_key_.resize(key_size);
    for (size_t g = 0; g < key_size; ++g) {
      std::sort(per_group[g].begin(), per_group[g].end());
      threshold_key_[g] = per_group[g][static_cast<size_t>(
          0.1 * static_cast<double>(per_group[g].size() - 1))];
    }
  }

  std::vector<Decision> Decide(const data::SpatialEntity& arrival) const {
    const auto text = features::LgmXExtractor::ComputeEntityText(arrival);
    const features::EntitySketch sketch = Sketch(text);
    std::vector<Decision> decisions;
    for (size_t i = 0; i < records_.size(); ++i) {
      const data::SpatialEntity& record = records_[i];
      if (arrival.location.valid) {
        const double d =
            geo::EquirectangularMeters(arrival.location, record.location);
        if (d < 0.0 || d > kRadiusM) continue;
      }
      const auto record_text =
          features::LgmXExtractor::ComputeEntityText(record);
      Decision decision;
      decision.index = i;
      decision.id = record.id;
      decision.estimate =
          features::EstimatePair(sketch, Sketch(record_text));
      decision.pass = decision.estimate >= kPrefilter;
      if (decision.pass) {
        decision.row.resize(extractor_.feature_count());
        extractor_.RowFromCache(arrival, text, record, record_text,
                                decision.row.data());
        std::vector<double> key(compiled_.KeySize());
        compiled_.Key(decision.row.data(), key.data());
        decision.score = key[0];
        decision.accepted = true;
        for (size_t g = 0; g < key.size(); ++g) {
          if (key[g] != threshold_key_[g]) {
            decision.accepted = key[g] > threshold_key_[g];
            break;
          }
        }
      }
      decisions.push_back(std::move(decision));
    }
    return decisions;
  }

  void Append(const data::SpatialEntity& arrival) {
    records_.entities.push_back(arrival);
  }

  const std::vector<double>& threshold_key() const { return threshold_key_; }

 private:
  static features::EntitySketch Sketch(
      const features::LgmXExtractor::EntityText& text) {
    features::EntitySketch sketch;
    sketch.name = features::BuildTokenSketch(text.name_norm);
    sketch.addr = features::BuildTokenSketch(text.addr_norm);
    return sketch;
  }

  features::LgmXExtractor extractor_;
  skyline::CompiledPreference compiled_;
  std::vector<double> threshold_key_;
  data::Dataset records_;
};

// The frozen decisions for every arrival, each matched against the store
// plus the arrivals before it. Computed once per kernel set.
struct Reference {
  std::vector<double> threshold_key;
  std::vector<std::vector<Decision>> decisions;  // per arrival
};

const Reference& ReferenceFor(text::KernelImpl impl) {
  static std::map<text::KernelImpl, Reference>* cache =
      new std::map<text::KernelImpl, Reference>();
  const auto it = cache->find(impl);
  if (it != cache->end()) return it->second;
  FrozenScorer scorer;
  Reference reference;
  reference.threshold_key = scorer.threshold_key();
  for (const data::SpatialEntity& arrival : TheWorld().arrivals) {
    reference.decisions.push_back(scorer.Decide(arrival));
    scorer.Append(arrival);
  }
  return cache->emplace(impl, std::move(reference)).first->second;
}

template <typename Body>
void ForEachKernel(Body body) {
  const text::KernelImpl saved = text::ActiveKernelImpl();
  for (const text::KernelImpl impl :
       {text::KernelImpl::kOptimized, text::KernelImpl::kReference}) {
    SCOPED_TRACE(impl == text::KernelImpl::kOptimized ? "optimized kernels"
                                                      : "reference kernels");
    text::SetKernelImpl(impl);
    body(ReferenceFor(impl));
  }
  text::SetKernelImpl(saved);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// `got` is `want` as a capture or an audit record carries it. The index
// is shard-local past one shard, and only an audit capture keeps the
// prefilter estimate.
void ExpectSameDecision(const quality::CandidateDecision& got,
                        const Decision& want, bool same_index,
                        bool with_estimate, const std::string& where) {
  EXPECT_EQ(got.candidate_id, want.id) << where;
  if (same_index) EXPECT_EQ(got.candidate_index, want.index) << where;
  EXPECT_EQ(got.prefilter_pass, want.pass) << where;
  EXPECT_EQ(got.scored, want.pass) << where;
  EXPECT_EQ(got.accepted, want.accepted) << where;
  if (with_estimate) {
    EXPECT_TRUE(SameBits(got.prefilter_estimate, want.estimate)) << where;
  }
  EXPECT_TRUE(SameBits(got.score, want.score)) << where;
  EXPECT_TRUE(SameBits(got.features, want.row)) << where;
}

// An audit capture's order: prefilter drops first, then the scored
// candidates, each in candidate order.
std::vector<const Decision*> AuditOrder(const std::vector<Decision>& all) {
  std::vector<const Decision*> order;
  for (const Decision& d : all) {
    if (!d.pass) order.push_back(&d);
  }
  for (const Decision& d : all) {
    if (d.pass) order.push_back(&d);
  }
  return order;
}

uint64_t FullRowsCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter("core/incremental_full_rows")
      .Value();
}

// What a linker is asked to capture.
struct Mode {
  const char* name;
  bool capture;
  bool audit;
  uint64_t drift_every;
};

TEST(ServedScoringTest, LinkerMatchesTheFullRowReferenceInEveryCaptureMode) {
  const World& w = TheWorld();
  ForEachKernel([&](const Reference& reference) {
    for (const Mode mode : {Mode{"off", false, false, 0},
                            Mode{"drift", true, false, kRowSampleEvery},
                            Mode{"audit", true, true, 0},
                            Mode{"audit+drift", true, true, kRowSampleEvery}}) {
      SCOPED_TRACE(mode.name);
      core::IncrementalLinkerOptions options;
      options.prefilter_threshold = kPrefilter;
      core::IncrementalLinker linker(
          w.store, features::LgmXExtractor::FromCorpus(w.store),
          LoadedModel(), w.full, w.accepted, options);
      uint64_t drift_rows = 0;  // the linker's row count, mirrored
      uint64_t full_rows = 0;
      const uint64_t counter_before = FullRowsCounter();
      size_t links = 0;
      for (size_t k = 0; k < w.arrivals.size(); ++k) {
        const std::string where = "arrival " + std::to_string(k);
        const std::vector<Decision>& want = reference.decisions[k];
        quality::MatchCapture capture;
        capture.audit = mode.audit;
        capture.drift_every = mode.drift_every;
        const std::vector<core::ScoredMatch> matches = linker.MatchRecord(
            w.arrivals[k], nullptr, mode.capture ? &capture : nullptr);
        linker.Append(w.arrivals[k]);

        std::vector<const Decision*> accepted;
        std::vector<const Decision*> scored;
        for (const Decision& d : want) {
          if (d.pass) scored.push_back(&d);
          if (d.accepted) accepted.push_back(&d);
        }
        ASSERT_EQ(matches.size(), accepted.size()) << where;
        for (size_t m = 0; m < matches.size(); ++m) {
          EXPECT_EQ(matches[m].index, accepted[m]->index) << where;
          EXPECT_TRUE(SameBits(matches[m].score, accepted[m]->score))
              << where;
        }
        links += matches.size();
        if (!mode.capture) continue;

        // The scored rows drift observes, as positions in the capture.
        const size_t dropped = want.size() - scored.size();
        std::vector<uint32_t> observed;
        std::vector<const Decision*> kept;
        if (mode.audit) kept = AuditOrder(want);
        for (size_t j = 0; j < scored.size(); ++j) {
          if (mode.drift_every == 0 ||
              (drift_rows + j) % mode.drift_every != 0) {
            continue;
          }
          observed.push_back(static_cast<uint32_t>(
              mode.audit ? dropped + j : kept.size()));
          if (!mode.audit) kept.push_back(scored[j]);
        }
        if (mode.drift_every > 0) drift_rows += scored.size();
        full_rows += mode.audit ? scored.size() : observed.size();

        EXPECT_EQ(capture.observed, observed) << where;
        if (mode.audit) {
          EXPECT_TRUE(SameBits(capture.threshold_key,
                               reference.threshold_key))
              << where;
        } else {
          EXPECT_TRUE(capture.threshold_key.empty()) << where;
        }
        ASSERT_EQ(capture.decisions.size(), kept.size()) << where;
        for (size_t d = 0; d < kept.size(); ++d) {
          ExpectSameDecision(capture.decisions[d], *kept[d],
                             /*same_index=*/true, mode.audit, where);
        }
      }
      EXPECT_GT(links, 0u);
      EXPECT_EQ(FullRowsCounter() - counter_before, full_rows);
      if (mode.drift_every > 0) EXPECT_GT(full_rows, 0u);
    }
  });
}

// What one served run returns: each arrival's answer, the audit log and
// the drift detector's state when the runtime kept them.
struct Served {
  std::vector<serve::LinkResult> results;
  std::vector<quality::AuditRecord> records;
  quality::DriftDetector::Stats drift;
};

quality::DriftOptions TestDriftOptions() {
  quality::DriftOptions options;
  options.window = 40;
  options.entity_window = 30;
  options.row_sample_every = kRowSampleEvery;
  return options;
}

// Serves every arrival, one request each and in order, through a router
// of `shards` shards, with the audit log (every attempt) and the drift
// detector on as asked.
Served Serve(size_t shards, bool audit, bool drift) {
  const World& w = TheWorld();
  quality::Runtime& runtime = quality::Runtime::Global();
  runtime.Disable();
  core::IncrementalLinkerOptions linker_options;
  linker_options.prefilter_threshold = kPrefilter;
  shard::RouterOptions router_options;
  router_options.node.batch_window_us = 0;
  std::string error;
  std::unique_ptr<shard::Router> router =
      shard::BootstrapRouter(w.store, LoadedModel(), linker_options, shards,
                             router_options, &error);
  Served served;
  if (router == nullptr) {
    ADD_FAILURE() << error;
    return served;
  }
  quality::QualityOptions options;
  if (audit) {
    options.audit.path = TempPath("audit");
    options.audit.sample_every = 1;
    options.audit.queue_capacity = 8 * kWorld;  // never drops
  }
  if (drift) {
    options.profile_path = TempPath("profile");
    EXPECT_TRUE(quality::SaveProfileToFile(w.profile, options.profile_path));
  }
  options.drift = TestDriftOptions();
  if (audit || drift) {
    EXPECT_TRUE(runtime.Enable(options, w.model_text,
                               features::LgmXFeatureCount(),
                               features::LgmXFeatureNames(), &error))
        << error;
  }
  if (drift) std::remove(options.profile_path.c_str());
  router->Start();
  for (const data::SpatialEntity& arrival : w.arrivals) {
    serve::LinkRequest request;
    request.entities = {arrival};
    obs::RequestTimeline timeline;
    serve::LinkAnswer answer = router->Link(std::move(request), &timeline);
    EXPECT_EQ(answer.status, serve::LinkStatus::kOk);
    EXPECT_EQ(answer.results.size(), 1u);
    if (answer.results.size() == 1) {
      served.results.push_back(std::move(answer.results[0]));
    }
  }
  router->Stop();
  served.drift = runtime.snapshot().drift_stats;
  runtime.Disable();
  if (audit) {
    quality::AuditLogHeader header;
    quality::AuditReadStats stats;
    EXPECT_TRUE(quality::ReadAuditLog(options.audit.path, &header,
                                      &served.records, &stats, &error))
        << error;
    std::remove(options.audit.path.c_str());
  }
  return served;
}

// The served answers and audit records against the frozen decisions.
void ExpectServedMatchesReference(const Served& served,
                                  const Reference& reference, size_t shards,
                                  bool audit) {
  const World& w = TheWorld();
  ASSERT_EQ(served.results.size(), w.arrivals.size());
  std::map<uint64_t, std::vector<const quality::AuditRecord*>> by_entity;
  for (const quality::AuditRecord& record : served.records) {
    by_entity[record.entity_id].push_back(&record);
  }
  size_t links = 0;
  for (size_t k = 0; k < w.arrivals.size(); ++k) {
    const std::string where = "arrival " + std::to_string(k);
    const std::vector<Decision>& want = reference.decisions[k];
    const serve::LinkResult& result = served.results[k];
    EXPECT_FALSE(result.degraded) << where;
    EXPECT_EQ(result.record_index, kStore + k) << where;
    // The router ranks links by score, then id, then record.
    std::vector<const Decision*> accepted;
    for (const Decision& d : want) {
      if (d.accepted) accepted.push_back(&d);
    }
    std::sort(accepted.begin(), accepted.end(),
              [](const Decision* a, const Decision* b) {
                if (a->score != b->score) return a->score > b->score;
                if (a->id != b->id) return a->id < b->id;
                return a->index < b->index;
              });
    ASSERT_EQ(result.links.size(), accepted.size()) << where;
    for (size_t l = 0; l < accepted.size(); ++l) {
      EXPECT_EQ(result.links[l].record, accepted[l]->index) << where;
    }
    links += accepted.size();
    if (!audit) continue;

    // One record per shard that scored the arrival; together they hold
    // every frozen decision once. One shard keeps the audit order.
    const auto it = by_entity.find(w.arrivals[k].id);
    ASSERT_NE(it, by_entity.end()) << where;
    std::map<uint64_t, const quality::CandidateDecision*> got;
    for (const quality::AuditRecord* record : it->second) {
      EXPECT_FALSE(record->degraded) << where;
      EXPECT_TRUE(SameBits(record->capture.threshold_key,
                           reference.threshold_key))
          << where;
      for (const quality::CandidateDecision& d : record->capture.decisions) {
        EXPECT_TRUE(got.emplace(d.candidate_id, &d).second)
            << where << " candidate " << d.candidate_id << " twice";
      }
    }
    ASSERT_EQ(got.size(), want.size()) << where;
    if (shards == 1) {
      ASSERT_EQ(it->second.size(), 1u) << where;
      const std::vector<const Decision*> order = AuditOrder(want);
      for (size_t d = 0; d < order.size(); ++d) {
        ExpectSameDecision(it->second[0]->capture.decisions[d], *order[d],
                           /*same_index=*/true, /*with_estimate=*/true,
                           where);
      }
    } else {
      for (const Decision& d : want) {
        const auto found = got.find(d.id);
        ASSERT_NE(found, got.end()) << where << " candidate " << d.id;
        ExpectSameDecision(*found->second, d, /*same_index=*/false,
                           /*with_estimate=*/true, where);
      }
    }
  }
  EXPECT_GT(links, 0u);
}

void ExpectServedMatchesReferenceInEveryMode(size_t shards) {
  ForEachKernel([&](const Reference& reference) {
    for (const auto& [audit, drift] : {std::pair{false, false},
                                       std::pair{false, true},
                                       std::pair{true, true}}) {
      SCOPED_TRACE(audit ? "audit + drift" : drift ? "drift" : "off");
      const Served served = Serve(shards, audit, drift);
      ExpectServedMatchesReference(served, reference, shards, audit);
      if (drift) EXPECT_GT(served.drift.row_windows, 0u);
    }
  });
}

TEST(ServedScoringTest, OneShardMatchesTheFullRowReference) {
  ExpectServedMatchesReferenceInEveryMode(1);
}

// Both shards' workers capture into the one runtime concurrently.
TEST(ServedScoringTest, TwoShardsMatchTheFullRowReference) {
  ExpectServedMatchesReferenceInEveryMode(2);
}

// At one shard the drift detector must end in the state a detector fed
// every scored full row in serving order reaches under the decimation
// the detector used to apply itself: every row_sample_every-th scored
// row of the captured attempts, counted across attempts.
TEST(ServedScoringTest, DriftObservesTheRowsDetectorDecimationPicked) {
  const World& w = TheWorld();
  const Reference& reference = ReferenceFor(text::ActiveKernelImpl());
  const quality::DriftOptions options = TestDriftOptions();
  quality::DriftDetector expected(w.profile, options);
  uint64_t rows_seen = 0;
  for (size_t k = 0; k < w.arrivals.size(); ++k) {
    expected.ObserveEntity(w.arrivals[k]);
    for (const Decision& d : reference.decisions[k]) {
      if (!d.pass) continue;
      if (rows_seen++ % options.row_sample_every != 0) continue;
      expected.ObserveRow(d.row.data(), d.row.size(), d.score);
    }
  }
  const quality::DriftDetector::Stats& want = expected.stats();
  ASSERT_GT(want.row_windows, 0u);

  for (const bool audit : {false, true}) {
    SCOPED_TRACE(audit ? "audit + drift" : "drift");
    const quality::DriftDetector::Stats got =
        Serve(1, audit, /*drift=*/true).drift;
    EXPECT_EQ(got.row_windows, want.row_windows);
    EXPECT_EQ(got.entity_windows, want.entity_windows);
    EXPECT_EQ(got.trips, want.trips);
    EXPECT_TRUE(SameBits(got.psi_feature_max, want.psi_feature_max));
    EXPECT_EQ(got.psi_feature_argmax, want.psi_feature_argmax);
    EXPECT_TRUE(SameBits(got.ks_score, want.ks_score));
    EXPECT_TRUE(SameBits(got.psi_lat, want.psi_lat));
    EXPECT_TRUE(SameBits(got.psi_lon, want.psi_lon));
    EXPECT_TRUE(SameBits(got.psi_name_len, want.psi_name_len));
    EXPECT_EQ(got.drifting, want.drifting);
    EXPECT_EQ(got.rows_pending, want.rows_pending);
    EXPECT_EQ(got.entities_pending, want.entities_pending);
  }
}

}  // namespace
}  // namespace skyex
