#include <gtest/gtest.h>

#include <algorithm>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"

namespace skyex::core {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::NorthDkOptions options;
    options.num_entities = 1200;
    options.seed = 41;
    // The incremental linker is exercised on a dataset without the
    // intentional look-alike noise (chains, malls, twins): these tests
    // verify the mechanism, not noise robustness.
    options.chain_ratio = 0.0;
    options.generic_name_ratio = 0.0;
    options.colocated_ratio = 0.0;
    options.mall_member_prob = 0.0;
    options.twin_negative_prob = 0.0;
    options.duplicate_rename_prob = 0.0;
    prepared_ = new PreparedData(PrepareNorthDk(options));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }
  static PreparedData* prepared_;
};

PreparedData* IncrementalTest::prepared_ = nullptr;

TEST_F(IncrementalTest, LinksArrivingDuplicate) {
  const auto& d = *prepared_;
  const auto split = eval::RandomSplit(d.pairs.size(), 0.15, 3);
  const SkyExT skyex;
  const auto model = skyex.Train(d.features, d.pairs.labels, split.train);

  // Accepted region calibration: the positively labeled training rows.
  std::vector<size_t> accepted;
  for (size_t r : split.train) {
    if (d.pairs.labels[r]) accepted.push_back(r);
  }
  ASSERT_FALSE(accepted.empty());

  IncrementalLinker linker(
      d.dataset, features::LgmXExtractor::FromCorpus(d.dataset),
      SkyExTModel{model.preference->Clone(), model.cutoff_ratio, {}, {}, 0.0},
      d.features, accepted);

  // A fresh record that duplicates record 0 (same attributes, slightly
  // moved) must link back to it.
  const size_t target = 0;
  data::SpatialEntity incoming = d.dataset[target];
  incoming.id = 999999;
  incoming.location.lat += 1e-5;
  const auto links = linker.AddRecord(incoming);
  EXPECT_NE(std::find(links.begin(), links.end(), target), links.end());

  // A record in the middle of nowhere links to nothing.
  data::SpatialEntity nowhere;
  nowhere.name = "unik navn ingen kender";
  nowhere.address_name = "ukendt vej";
  nowhere.address_number = 1;
  nowhere.location = geo::GeoPoint{56.61, 8.41, true};
  EXPECT_TRUE(linker.AddRecord(nowhere).empty());

  // The dataset grew by the two records.
  EXPECT_EQ(linker.dataset().size(), d.dataset.size() + 2);
}

TEST_F(IncrementalTest, PrecisionOverArrivingStream) {
  const auto& d = *prepared_;
  const auto split = eval::RandomSplit(d.pairs.size(), 0.15, 4);
  const SkyExT skyex;
  const auto model = skyex.Train(d.features, d.pairs.labels, split.train);
  std::vector<size_t> accepted;
  for (size_t r : split.train) {
    if (d.pairs.labels[r]) accepted.push_back(r);
  }
  IncrementalLinker linker(
      d.dataset, features::LgmXExtractor::FromCorpus(d.dataset),
      SkyExTModel{model.preference->Clone(), model.cutoff_ratio, {}, {}, 0.0},
      d.features, accepted);

  // Stream 40 perturbed copies of existing records; most links should
  // point at the source record's physical entity.
  size_t correct = 0;
  size_t total = 0;
  for (size_t k = 0; k < 40; ++k) {
    const size_t source = (k * 29) % d.dataset.size();
    data::SpatialEntity incoming = d.dataset[source];
    incoming.id = 100000 + k;
    incoming.location.lat += 2e-5;
    const auto links = linker.AddRecord(incoming);
    for (size_t l : links) {
      if (l >= d.dataset.size()) continue;  // earlier streamed record
      ++total;
      if (linker.dataset()[l].physical_id ==
          d.dataset[source].physical_id) {
        ++correct;
      }
    }
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.6);
}

// Drift row decimation lives where rows are numbered: a capture with
// drift_every = N keeps scored row n of the linker's own count when
// n % N == 0, counting across attempts in candidate order, while an
// attempt captured without drift numbers nothing. A coordinate-less
// arrival over more than 2,048 records is scored in parallel chunks and
// must keep the same rows.
TEST_F(IncrementalTest, RowDecimationObservesEveryNth) {
  const auto& d = *prepared_;
  const auto split = eval::RandomSplit(d.pairs.size(), 0.15, 3);
  const auto model = SkyExT().Train(d.features, d.pairs.labels, split.train);
  std::vector<size_t> accepted;
  for (size_t r : split.train) {
    if (d.pairs.labels[r]) accepted.push_back(r);
  }
  const auto make = [&] {
    return IncrementalLinker(
        d.dataset, features::LgmXExtractor::FromCorpus(d.dataset),
        SkyExTModel{model.preference->Clone(), model.cutoff_ratio, {}, {},
                    0.0},
        d.features, accepted);
  };
  IncrementalLinker drift = make();  // drift-only captures
  IncrementalLinker audit = make();  // the same attempts' full trails
  for (size_t k = 0; k < 900; ++k) {
    data::SpatialEntity copy = d.dataset[k];
    copy.id = 500000 + k;
    copy.location.lat += 1e-5;
    drift.Append(copy);
    audit.Append(copy);
  }
  ASSERT_GT(drift.dataset().size(), 2048u);

  constexpr uint64_t kEvery = 4;
  uint64_t numbered = 0;  // the drift linker's row count, mirrored
  size_t observed = 0;
  for (size_t k = 0; k < 8; ++k) {
    data::SpatialEntity arrival = d.dataset[(k * 131) % d.dataset.size()];
    arrival.id = 600000 + k;
    if (k == 5) arrival.location = geo::GeoPoint::Invalid();
    quality::MatchCapture full;
    audit.MatchRecord(arrival, nullptr, &full);
    if (k == 2) {
      quality::MatchCapture audit_only;
      drift.MatchRecord(arrival, nullptr, &audit_only);
      EXPECT_TRUE(audit_only.observed.empty());
      continue;
    }
    quality::MatchCapture capture;
    capture.audit = false;
    capture.drift_every = kEvery;
    drift.MatchRecord(arrival, nullptr, &capture);
    std::vector<const quality::CandidateDecision*> want;
    uint64_t j = 0;
    for (const quality::CandidateDecision& decision : full.decisions) {
      if (!decision.scored) continue;
      if ((numbered + j) % kEvery == 0) want.push_back(&decision);
      ++j;
    }
    numbered += j;
    ASSERT_EQ(capture.decisions.size(), want.size()) << "arrival " << k;
    ASSERT_EQ(capture.observed.size(), want.size()) << "arrival " << k;
    for (size_t o = 0; o < want.size(); ++o) {
      EXPECT_EQ(capture.observed[o], o);
      EXPECT_EQ(capture.decisions[o].candidate_index,
                want[o]->candidate_index);
      EXPECT_EQ(capture.decisions[o].score, want[o]->score);
      EXPECT_EQ(capture.decisions[o].features, want[o]->features);
    }
    observed += want.size();
  }
  EXPECT_GT(numbered, 2048u);
  EXPECT_EQ(observed, (numbered + kEvery - 1) / kEvery);
}

}  // namespace
}  // namespace skyex::core
