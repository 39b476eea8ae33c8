// Pins two-pass training (core::TrainTwoPass, what `skyex link` trains
// without --model) to the one-pass path it replaced. The reference keeps
// that path frozen: every LGM-X column of every pair
// (LgmXExtractor::Extract), SkyExT::Train over that matrix with the MI
// step on all rows, then core::LinkEntities on the full matrix. The two
// passes must save the same model text, hold the model's columns of
// every pair bit for bit (memcmp), extract each pair exactly once
// (`features/rows_extracted`), and link the same entities, at 1 and 2
// pool threads. The worlds cover MI rows thinned by a stride, every row
// sampled (nothing left for the second pass) and a Cartesian pair set.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/linker.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "core/two_pass.h"
#include "data/ground_truth.h"
#include "data/northdk_generator.h"
#include "data/restaurants_generator.h"
#include "eval/sampling.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"

namespace skyex {
namespace {

constexpr size_t kThreadCounts[] = {1, 2};

uint64_t RowsExtracted() {
  return obs::MetricsRegistry::Global()
      .GetCounter("features/rows_extracted")
      .Value();
}

// Trains both ways on `world` and compares everything the CLI reads.
void ExpectTwoPassMatchesOnePass(const data::Dataset& dataset,
                                 const std::vector<geo::CandidatePair>& pairs,
                                 const std::vector<uint8_t>& labels,
                                 const core::SkyExTOptions& options,
                                 double train_fraction) {
  const core::SkyExT skyex(options);
  const features::LgmXExtractor extractor =
      features::LgmXExtractor::FromCorpus(dataset);
  const std::vector<size_t> train_rows =
      eval::RandomSplit(pairs.size(), train_fraction, 42).train;
  const std::vector<size_t> all_rows = core::AllRows(pairs.size());

  // The frozen one-pass path.
  const ml::FeatureMatrix full = extractor.Extract(dataset, pairs);
  const core::SkyExTModel want =
      skyex.Train(full, labels, train_rows, &all_rows);
  const std::string want_text = core::SaveModel(want);
  ASSERT_FALSE(want_text.empty());
  const std::vector<core::LinkedEntity> want_linked =
      core::LinkEntities(dataset, full, pairs, want);

  for (const size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::ThreadPool::SetGlobalThreads(threads);
    const uint64_t extracted_before = RowsExtracted();
    const core::TwoPassModel got = core::TrainTwoPass(
        skyex, extractor, dataset, pairs, labels, train_rows);
    EXPECT_EQ(RowsExtracted() - extracted_before, pairs.size());
    EXPECT_EQ(core::SaveModel(got.model), want_text);

    const ml::FeatureMatrix want_columns =
        full.SelectColumns(got.projected.columns);
    ASSERT_EQ(got.features.rows, pairs.size());
    ASSERT_EQ(got.features.cols, got.projected.columns.size());
    EXPECT_EQ(got.features.names, want_columns.names);
    ASSERT_EQ(got.features.values.size(), want_columns.values.size());
    EXPECT_EQ(std::memcmp(got.features.values.data(),
                          want_columns.values.data(),
                          want_columns.values.size() * sizeof(double)),
              0)
        << "the model's columns differ from the full matrix's";

    const std::vector<core::LinkedEntity> linked = core::LinkEntities(
        dataset, got.features, pairs, got.projected.model);
    ASSERT_EQ(linked.size(), want_linked.size());
    for (size_t e = 0; e < linked.size(); ++e) {
      EXPECT_EQ(linked[e].record_indices, want_linked[e].record_indices)
          << "entity " << e;
      EXPECT_EQ(linked[e].merged.id, want_linked[e].merged.id);
      EXPECT_EQ(linked[e].merged.name, want_linked[e].merged.name);
    }
  }
  par::ThreadPool::SetGlobalThreads(0);
}

void ExpectNorthDkMatches(size_t entities, const core::SkyExTOptions& options,
                          size_t min_pairs, size_t max_pairs) {
  data::NorthDkOptions world;
  world.num_entities = entities;
  const data::Dataset dataset = data::GenerateNorthDk(world);
  const std::vector<geo::CandidatePair> pairs =
      geo::BlockPoints(dataset.Points());
  ASSERT_GE(pairs.size(), min_pairs);
  ASSERT_LE(pairs.size(), max_pairs);
  ExpectTwoPassMatchesOnePass(dataset, pairs,
                              data::LabelPairs(dataset, pairs), options,
                              0.04);
}

// More pairs than max_mi_rows: the MI step reads a stride-thinned
// subsample, so the first pass extracts the training rows plus the
// thinned rows and the second pass most pairs.
TEST(TwoPassTrain, NorthDkWithThinnedMiRows) {
  core::SkyExTOptions options;
  options.selection.max_mi_rows = 3000;
  ExpectNorthDkMatches(1200, options, 3001, 1000000);
}

// Fewer pairs than max_mi_rows: the MI step reads every pair, so the
// first pass extracts them all in full and the second pass none.
TEST(TwoPassTrain, NorthDkWithEveryRowSampled) {
  const core::SkyExTOptions options;
  ExpectNorthDkMatches(600, options, 1, options.selection.max_mi_rows);
}

// The Restaurants world has no coordinates: a Cartesian subsample with
// its positives kept, and the class skew extreme.
TEST(TwoPassTrain, RestaurantsCartesianSubsample) {
  const core::PreparedData prepared =
      core::PrepareRestaurants({}, {}, /*max_pairs=*/8000);
  core::SkyExTOptions options;
  options.selection.max_mi_rows = 2500;
  ASSERT_GT(prepared.pairs.size(), options.selection.max_mi_rows);
  ExpectTwoPassMatchesOnePass(prepared.dataset, prepared.pairs.pairs,
                              prepared.pairs.labels, options, 0.05);
}

}  // namespace
}  // namespace skyex
