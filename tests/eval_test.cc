#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "eval/metrics.h"
#include "eval/sampling.h"
#include "eval/stopwatch.h"

namespace skyex::eval {
namespace {

TEST(Metrics, ConfusionCounts) {
  const std::vector<uint8_t> predicted = {1, 1, 0, 0, 1};
  const std::vector<uint8_t> truth = {1, 0, 1, 0, 1};
  const ConfusionMatrix m = Confusion(predicted, truth);
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.tn, 1u);
  EXPECT_DOUBLE_EQ(m.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.F1(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 3.0 / 5.0);
}

TEST(Metrics, EmptyEdgeCases) {
  const ConfusionMatrix m;
  EXPECT_DOUBLE_EQ(m.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.F1(), 0.0);
  EXPECT_DOUBLE_EQ(F1Score(0, 0, 0), 0.0);
}

TEST(Metrics, F1FromCountsMatchesDefinition) {
  // P = 3/4, R = 3/5 → F1 = 2·0.75·0.6/1.35 = 2/3.
  EXPECT_NEAR(F1Score(3, 1, 2), 2.0 / 3.0, 1e-12);
}

TEST(Sampling, DisjointSplitsAreDisjointAndSized) {
  const auto splits = DisjointTrainingSplits(1000, 0.05, 10, 42);
  ASSERT_EQ(splits.size(), 10u);
  std::set<size_t> seen;
  for (const Split& s : splits) {
    EXPECT_EQ(s.train.size(), 50u);
    EXPECT_EQ(s.test.size(), 950u);
    for (size_t i : s.train) {
      EXPECT_TRUE(seen.insert(i).second) << "training sets overlap";
    }
    // train ∪ test covers everything exactly once.
    std::set<size_t> all(s.train.begin(), s.train.end());
    all.insert(s.test.begin(), s.test.end());
    EXPECT_EQ(all.size(), 1000u);
  }
}

TEST(Sampling, ReducesRepetitionsWhenFractionTooLarge) {
  // 10 disjoint 30% sets don't fit; only 3 do.
  const auto splits = DisjointTrainingSplits(100, 0.3, 10, 1);
  EXPECT_EQ(splits.size(), 3u);
}

TEST(Sampling, TinyFractionStillHasOneRow) {
  const auto splits = DisjointTrainingSplits(100, 0.0001, 2, 1);
  ASSERT_FALSE(splits.empty());
  EXPECT_EQ(splits[0].train.size(), 1u);
}

// The CLI refuses such fractions; the library clamps them before the
// size_t cast, which is undefined for a negative or NaN product.
TEST(Sampling, FractionOutsideTheUnitIntervalIsClamped) {
  for (const double fraction :
       {std::numeric_limits<double>::quiet_NaN(), -0.5, -1e300}) {
    SCOPED_TRACE(fraction);
    const auto splits = DisjointTrainingSplits(100, fraction, 3, 1);
    ASSERT_EQ(splits.size(), 3u);
    EXPECT_EQ(splits[0].train.size(), 1u);
    EXPECT_EQ(splits[0].test.size(), 99u);
  }
  for (const double fraction :
       {1.5, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(fraction);
    const auto splits = DisjointTrainingSplits(100, fraction, 3, 1);
    ASSERT_EQ(splits.size(), 1u);
    EXPECT_EQ(splits[0].train.size(), 100u);
    EXPECT_TRUE(splits[0].test.empty());
  }
}

TEST(Sampling, DeterministicBySeed) {
  const auto a = DisjointTrainingSplits(500, 0.1, 3, 7);
  const auto b = DisjointTrainingSplits(500, 0.1, 3, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[1].train, b[1].train);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  // Just sanity: time is non-negative and monotone.
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

}  // namespace
}  // namespace skyex::eval
