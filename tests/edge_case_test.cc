// Edge cases across modules: degenerate inputs, all-equal rows, empty
// datasets, and the dominance/key compatibility property the layer
// presort relies on.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <random>

#include "eval/sampling.h"
#include "features/lgm_x.h"
#include "ml/statistics.h"
#include "skyline/layers.h"
#include "skyline/preference.h"

namespace skyex {
namespace {

// ----------------------------------------------- skyline degenerate inputs

TEST(SkylineEdge, AllEqualRowsFormOneLayer) {
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(50, {"a", "b"});
  for (size_t r = 0; r < m.rows; ++r) {
    m.Row(r)[0] = 0.5;
    m.Row(r)[1] = 0.5;
  }
  std::vector<std::unique_ptr<skyline::Preference>> leaves;
  leaves.push_back(skyline::High(0));
  leaves.push_back(skyline::High(1));
  const auto p = skyline::ParetoOf(std::move(leaves));
  std::vector<size_t> rows(m.rows);
  std::iota(rows.begin(), rows.end(), 0);
  const auto layers = skyline::ComputeSkylineLayers(m, rows, *p);
  EXPECT_EQ(layers.max_layer, 1u);
  EXPECT_EQ(layers.layer_counts, (std::vector<size_t>{50}));
}

TEST(SkylineEdge, TotallyOrderedRowsFormSingletonLayers) {
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(20, {"a"});
  for (size_t r = 0; r < m.rows; ++r) {
    m.Row(r)[0] = static_cast<double>(r);
  }
  const auto p = skyline::High(0);
  std::vector<size_t> rows(m.rows);
  std::iota(rows.begin(), rows.end(), 0);
  const auto layers = skyline::ComputeSkylineLayers(m, rows, *p);
  EXPECT_EQ(layers.max_layer, 20u);
  // Highest value = layer 1.
  EXPECT_EQ(layers.layer[19], 1u);
  EXPECT_EQ(layers.layer[0], 20u);
}

// Dominance-compatibility of the compiled key: Better ⇒ key strictly
// greater lexicographically (the presort's load-bearing invariant).
TEST(SkylineEdge, CompiledKeyCompatibleWithDominance) {
  std::vector<std::unique_ptr<skyline::Preference>> g1;
  g1.push_back(skyline::High(0));
  g1.push_back(skyline::Low(1));
  std::vector<std::unique_ptr<skyline::Preference>> parts;
  parts.push_back(skyline::ParetoOf(std::move(g1)));
  parts.push_back(skyline::High(2));
  const auto p = skyline::PriorityOf(std::move(parts));
  const auto compiled = skyline::Compile(*p);
  ASSERT_TRUE(compiled.has_value());

  std::mt19937_64 rng(31);
  std::uniform_int_distribution<int> grid(0, 3);
  std::vector<double> key_a(compiled->KeySize());
  std::vector<double> key_b(compiled->KeySize());
  for (int trial = 0; trial < 2000; ++trial) {
    double a[3];
    double b[3];
    for (int c = 0; c < 3; ++c) {
      a[c] = grid(rng) / 3.0;
      b[c] = grid(rng) / 3.0;
    }
    if (compiled->Compare(a, b) != skyline::Comparison::kBetter) continue;
    compiled->Key(a, key_a.data());
    compiled->Key(b, key_b.data());
    EXPECT_GT(key_a, key_b);  // std::vector lexicographic comparison
  }
}

// -------------------------------------------------- features degenerate

TEST(FeaturesEdge, EmptyCorpusAndEmptyNames) {
  data::Dataset empty;
  const auto extractor = features::LgmXExtractor::FromCorpus(empty);
  data::SpatialEntity blank;  // everything missing
  std::vector<double> row(extractor.feature_count());
  extractor.ExtractRow(blank, blank, row.data());
  for (double v : row) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FeaturesEdge, ExtractOnZeroPairs) {
  data::Dataset d;
  data::SpatialEntity e;
  e.name = "solo";
  d.entities.push_back(e);
  const auto extractor = features::LgmXExtractor::FromCorpus(d);
  const auto matrix = extractor.Extract(d, {});
  EXPECT_EQ(matrix.rows, 0u);
  EXPECT_EQ(matrix.cols, 88u);
}

// ------------------------------------------------------ statistics edges

TEST(StatisticsEdge, MutualInformationDegenerate) {
  EXPECT_DOUBLE_EQ(ml::MutualInformation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ml::MutualInformation({1.0}, {2.0}), 0.0);
  // Constant columns carry no information.
  const std::vector<double> constant(100, 3.0);
  std::vector<double> varying(100);
  std::iota(varying.begin(), varying.end(), 0.0);
  EXPECT_DOUBLE_EQ(ml::NormalizedMutualInformation(constant, varying), 0.0);
}

TEST(StatisticsEdge, ExplicitBinCount) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> x(3000);
  for (double& v : x) v = unit(rng);
  // Self-NMI is 1 regardless of the bin count.
  EXPECT_NEAR(ml::NormalizedMutualInformation(x, x, 8), 1.0, 1e-9);
  EXPECT_NEAR(ml::NormalizedMutualInformation(x, x, 64), 1.0, 1e-9);
}

// -------------------------------------------------------- sampling edges

TEST(SamplingEdge, FractionOfOneUsesEverything) {
  const auto splits = eval::DisjointTrainingSplits(10, 1.0, 3, 1);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].train.size(), 10u);
  EXPECT_TRUE(splits[0].test.empty());
}

TEST(SamplingEdge, SingleElement) {
  const auto splits = eval::DisjointTrainingSplits(1, 0.5, 5, 1);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].train.size(), 1u);
}

// A world without pairs has nothing to train on; the one-row floor must
// not reach past the end.
TEST(SamplingEdge, NoElementsGivesOneEmptySplit) {
  const auto splits = eval::DisjointTrainingSplits(0, 0.04, 5, 1);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_TRUE(splits[0].train.empty());
  EXPECT_TRUE(splits[0].test.empty());
}

}  // namespace
}  // namespace skyex
