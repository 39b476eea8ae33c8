// Determinism across thread counts: skyline layers, swept cut-offs and
// ensemble model predictions must come out bit-identical at --threads
// 1, 2 and 8, and across repeated runs at the same thread count. This
// pins the core promise of the parallel runtime (docs/parallelism.md):
// parallelism changes wall-clock, never results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/skyex_t.h"
#include "ml/dataset_view.h"
#include "ml/extra_trees.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "par/thread_pool.h"
#include "skyline/layers.h"
#include "skyline/preference.h"

namespace skyex {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

/// Large enough to cross the parallel-peeling and parallel-scan
/// engagement thresholds (4096 rows / 1024-row nodes).
ml::FeatureMatrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  ml::FeatureMatrix m;
  m.rows = rows;
  m.cols = cols;
  for (size_t c = 0; c < cols; ++c) {
    m.names.push_back("X" + std::to_string(c + 1));
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  m.values.resize(rows * cols);
  for (double& v : m.values) v = value(rng);
  return m;
}

std::vector<size_t> AllRows(const ml::FeatureMatrix& m) {
  std::vector<size_t> rows(m.rows);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

std::unique_ptr<skyline::Preference> HighAll(size_t cols) {
  std::vector<std::unique_ptr<skyline::Preference>> leaves;
  for (size_t c = 0; c < cols; ++c) leaves.push_back(skyline::High(c));
  return skyline::ParetoOf(std::move(leaves));
}

/// Labels correlated with the first feature, so the cut-off sweep has a
/// non-trivial optimum.
std::vector<uint8_t> CorrelatedLabels(const ml::FeatureMatrix& m,
                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(0.0, 0.4);
  std::vector<uint8_t> labels(m.rows, 0);
  for (size_t r = 0; r < m.rows; ++r) {
    labels[r] = (m.At(r, 0) + noise(rng)) > 0.95 ? 1 : 0;
  }
  return labels;
}

TEST(ParDeterminism, SkylineLayersIdenticalAcrossThreadCounts) {
  const ml::FeatureMatrix m = RandomMatrix(6000, 4, 11);
  const std::vector<size_t> rows = AllRows(m);
  const auto preference = HighAll(m.cols);

  std::vector<uint32_t> reference;
  for (const size_t threads : kThreadCounts) {
    par::ThreadPool::SetGlobalThreads(threads);
    for (int rep = 0; rep < 2; ++rep) {
      const skyline::SkylineLayers layers =
          skyline::ComputeSkylineLayers(m, rows, *preference);
      if (reference.empty()) reference = layers.layer;
      ASSERT_EQ(layers.layer, reference)
          << "layer assignment diverged at threads=" << threads;
    }
  }
  par::ThreadPool::SetGlobalThreads(0);
}

TEST(ParDeterminism, PeelerEmitsIdenticalLayerSequences) {
  const ml::FeatureMatrix m = RandomMatrix(5000, 3, 23);
  const std::vector<size_t> rows = AllRows(m);
  const auto preference = HighAll(m.cols);

  // Full peel at each thread count; every layer must match in content
  // AND order (the parallel merge must preserve the serial emission
  // order, not just the set).
  std::vector<std::vector<size_t>> reference;
  for (const size_t threads : kThreadCounts) {
    par::ThreadPool::SetGlobalThreads(threads);
    skyline::SkylinePeeler peeler(m, rows, *preference);
    std::vector<std::vector<size_t>> peeled;
    for (;;) {
      std::vector<size_t> layer = peeler.Next();
      if (layer.empty()) break;
      peeled.push_back(std::move(layer));
    }
    if (reference.empty()) {
      reference = std::move(peeled);
      continue;
    }
    ASSERT_EQ(peeled.size(), reference.size());
    for (size_t k = 0; k < peeled.size(); ++k) {
      ASSERT_EQ(peeled[k], reference[k])
          << "layer " << k + 1 << " diverged at threads=" << threads;
    }
  }
  par::ThreadPool::SetGlobalThreads(0);
}

// Values whose group sums round together: once a group's other terms
// add to 2, a last term of 1 or of 1 - 2^-53 gives the same sum, so a
// dominator and the row it dominates can share every group-sum key
// entry. The presort must still put the dominator first, or the
// parallel peel (which never evicts) keeps the dominated row in the
// dominator's layer.
TEST(ParDeterminism, RoundedGroupSumTiesPeelIdenticalLayers) {
  const double values[] = {1.0, 1.0 - std::ldexp(1.0, -53),
                           1.0 - std::ldexp(1.0, -52), 0.5};
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(
      6000, {"X0", "X1", "X2", "X3", "X4"});
  std::mt19937_64 rng(29);
  std::uniform_int_distribution<size_t> pick(0, 3);
  for (double& v : m.values) v = values[pick(rng)];
  const std::vector<size_t> rows = AllRows(m);
  std::vector<std::unique_ptr<skyline::Preference>> group1;
  for (size_t c = 0; c < 3; ++c) group1.push_back(skyline::High(c));
  std::vector<std::unique_ptr<skyline::Preference>> group2;
  for (size_t c = 3; c < 5; ++c) group2.push_back(skyline::High(c));
  std::vector<std::unique_ptr<skyline::Preference>> groups;
  groups.push_back(skyline::ParetoOf(std::move(group1)));
  groups.push_back(skyline::ParetoOf(std::move(group2)));
  const auto preference = skyline::PriorityOf(std::move(groups));

  // Every layer must match in content and order.
  std::vector<std::vector<size_t>> reference;
  for (const size_t threads : kThreadCounts) {
    par::ThreadPool::SetGlobalThreads(threads);
    skyline::SkylinePeeler peeler(m, rows, *preference);
    std::vector<std::vector<size_t>> peeled;
    for (;;) {
      std::vector<size_t> layer = peeler.Next();
      if (layer.empty()) break;
      peeled.push_back(std::move(layer));
    }
    if (reference.empty()) {
      reference = std::move(peeled);
      continue;
    }
    ASSERT_EQ(peeled.size(), reference.size())
        << "layer count diverged at threads=" << threads;
    for (size_t k = 0; k < peeled.size(); ++k) {
      ASSERT_EQ(peeled[k], reference[k])
          << "layer " << k + 1 << " diverged at threads=" << threads;
    }
  }
  par::ThreadPool::SetGlobalThreads(0);
}

TEST(ParDeterminism, SweptCutoffIdenticalAcrossThreadCounts) {
  const ml::FeatureMatrix m = RandomMatrix(5000, 3, 37);
  const std::vector<size_t> rows = AllRows(m);
  const std::vector<uint8_t> labels = CorrelatedLabels(m, 41);
  const auto preference = HighAll(m.cols);

  core::CutoffSweep reference;
  bool have_reference = false;
  for (const size_t threads : kThreadCounts) {
    par::ThreadPool::SetGlobalThreads(threads);
    const core::CutoffSweep sweep =
        core::SweepCutoffOverSkylines(m, rows, labels, *preference);
    if (!have_reference) {
      reference = sweep;
      have_reference = true;
      EXPECT_GT(reference.best_layer, 0u);
      continue;
    }
    EXPECT_EQ(sweep.best_layer, reference.best_layer);
    EXPECT_EQ(sweep.best_cumulative, reference.best_cumulative);
    EXPECT_EQ(sweep.best_tp, reference.best_tp);
    EXPECT_EQ(sweep.best_f1, reference.best_f1);  // bitwise
    EXPECT_EQ(sweep.f1_per_layer, reference.f1_per_layer);
  }
  par::ThreadPool::SetGlobalThreads(0);
}

template <typename Model>
std::vector<double> TrainAndScore(typename Model::Options options,
                                  const ml::FeatureMatrix& m,
                                  const std::vector<uint8_t>& labels) {
  Model model(options);
  model.Fit(m, labels, AllRows(m));
  std::vector<double> scores;
  for (size_t r = 0; r < m.rows; r += 97) scores.push_back(
      model.PredictScore(m.Row(r)));
  return scores;
}

template <typename Model>
void ExpectModelDeterministic(typename Model::Options options,
                              const ml::FeatureMatrix& m,
                              const std::vector<uint8_t>& labels) {
  std::vector<double> reference;
  for (const size_t threads : kThreadCounts) {
    par::ThreadPool::SetGlobalThreads(threads);
    for (int rep = 0; rep < 2; ++rep) {
      const std::vector<double> scores =
          TrainAndScore<Model>(options, m, labels);
      if (reference.empty()) {
        reference = scores;
        continue;
      }
      ASSERT_EQ(scores.size(), reference.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        // Bitwise equality: the parallel trainers must replay the exact
        // serial arithmetic, not approximate it.
        ASSERT_EQ(scores[i], reference[i])
            << "prediction " << i << " diverged at threads=" << threads;
      }
    }
  }
  par::ThreadPool::SetGlobalThreads(0);
}

TEST(ParDeterminism, RandomForestPredictionsIdentical) {
  const ml::FeatureMatrix m = RandomMatrix(3000, 6, 53);
  const std::vector<uint8_t> labels = CorrelatedLabels(m, 59);
  ml::RandomForestOptions options;
  options.num_trees = 24;
  ExpectModelDeterministic<ml::RandomForest>(options, m, labels);
}

TEST(ParDeterminism, ExtraTreesPredictionsIdentical) {
  const ml::FeatureMatrix m = RandomMatrix(3000, 6, 61);
  const std::vector<uint8_t> labels = CorrelatedLabels(m, 67);
  ml::ExtraTreesOptions options;
  options.num_trees = 24;
  options.max_rows_per_tree = 2000;  // exercise the capped-rows path
  ExpectModelDeterministic<ml::ExtraTrees>(options, m, labels);
}

TEST(ParDeterminism, GradientBoostingPredictionsIdentical) {
  // 2000 rows per root node crosses the 1024-row parallel-scan gate.
  const ml::FeatureMatrix m = RandomMatrix(2000, 8, 71);
  const std::vector<uint8_t> labels = CorrelatedLabels(m, 73);
  ml::GradientBoostingOptions options;
  options.num_rounds = 12;
  options.max_depth = 4;
  ExpectModelDeterministic<ml::GradientBoosting>(options, m, labels);
}

}  // namespace
}  // namespace skyex
