#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/feature_selection.h"
#include "core/skyex_d.h"
#include "core/skyex_f.h"
#include "core/skyex_t.h"
#include "eval/metrics.h"
#include "eval/sampling.h"
#include "ml/dataset_view.h"

namespace skyex::core {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// A synthetic "linkage-like" problem: features in [0,1], positives have
// high f1/f2 (strong signals), mildly high f3 (weak signal); f4 is a
// duplicate of f1; f5 is noise.
struct Problem {
  ml::FeatureMatrix matrix;
  std::vector<uint8_t> labels;
};

Problem MakeProblem(size_t n, double positive_rate, uint64_t seed) {
  Problem p;
  p.matrix =
      ml::FeatureMatrix::Zeros(n, {"f1", "f2", "f3", "f1_dup", "noise"});
  p.labels.resize(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> noise(0.0, 0.1);
  const auto grid = [](double v) {
    return std::clamp(std::round(v * 20.0) / 20.0, 0.0, 1.0);
  };
  for (size_t r = 0; r < n; ++r) {
    const bool positive = unit(rng) < positive_rate;
    p.labels[r] = positive ? 1 : 0;
    double* row = p.matrix.Row(r);
    row[0] = grid((positive ? 0.85 : 0.30) + noise(rng));
    row[1] = grid((positive ? 0.80 : 0.35) + noise(rng));
    row[2] = grid((positive ? 0.60 : 0.45) + noise(rng) * 1.5);
    row[3] = row[0];
    row[4] = grid(unit(rng));
  }
  return p;
}

// --------------------------------------------------------- Feature selection

TEST(FeatureSelection, DropsDuplicatedColumn) {
  const Problem p = MakeProblem(2000, 0.2, 3);
  const std::vector<size_t> kept =
      DeduplicateFeatures(p.matrix, Iota(p.matrix.rows));
  // Exactly one of {f1, f1_dup} survives.
  int f1_family = 0;
  for (size_t c : kept) {
    if (c == 0 || c == 3) ++f1_family;
  }
  EXPECT_EQ(f1_family, 1);
  // Independent columns survive.
  EXPECT_NE(std::find(kept.begin(), kept.end(), 4u), kept.end());
}

TEST(FeatureSelection, RankOrdersBySignalStrength) {
  const Problem p = MakeProblem(4000, 0.2, 4);
  const std::vector<size_t> columns = {0, 1, 2, 4};
  const auto ranked =
      RankByClassCorrelation(p.matrix, p.labels, Iota(p.matrix.rows),
                             columns);
  ASSERT_EQ(ranked.size(), 4u);
  // Strong signals first, noise last.
  EXPECT_TRUE(ranked[0].column == 0 || ranked[0].column == 1);
  EXPECT_EQ(ranked.back().column, 4u);
  EXPECT_GT(std::abs(ranked[0].rho), std::abs(ranked[3].rho));
}

// ------------------------------------------------------------ Cut-off sweep

TEST(CutoffSweep, ExactOnToyExample) {
  // One feature; values (descending) with labels 1,1,1,0,0,0.
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(6, {"f"});
  const double values[] = {0.9, 0.8, 0.7, 0.4, 0.3, 0.2};
  for (size_t r = 0; r < 6; ++r) m.Row(r)[0] = values[r];
  const std::vector<uint8_t> labels = {1, 1, 1, 0, 0, 0};

  const auto pref = skyline::High(0);
  const CutoffSweep sweep =
      SweepCutoffOverSkylines(m, Iota(6), labels, *pref);
  // Perfect separation at layer 3 (each distinct value = one skyline).
  EXPECT_DOUBLE_EQ(sweep.best_f1, 1.0);
  EXPECT_EQ(sweep.best_layer, 3u);
  EXPECT_EQ(sweep.best_cumulative, 3u);
  EXPECT_EQ(sweep.best_tp, 3u);
  // The sweep stops once all positives are ranked.
  EXPECT_EQ(sweep.f1_per_layer.size(), 3u);
}

TEST(CutoffSweep, NoPositives) {
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(4, {"f"});
  for (size_t r = 0; r < 4; ++r) m.Row(r)[0] = 0.1 * (r + 1);
  const std::vector<uint8_t> labels = {0, 0, 0, 0};
  const auto pref = skyline::High(0);
  const CutoffSweep sweep =
      SweepCutoffOverSkylines(m, Iota(4), labels, *pref);
  EXPECT_DOUBLE_EQ(sweep.best_f1, 0.0);
  EXPECT_EQ(sweep.best_layer, 1u);
}

// ----------------------------------------------------------------- SkyEx-T

TEST(SkyExTTest, TrainsPreferenceWithSensibleGroups) {
  const Problem p = MakeProblem(3000, 0.15, 7);
  const SkyExT skyex;
  const auto splits = eval::DisjointTrainingSplits(p.matrix.rows, 0.2, 1, 1);
  const SkyExTModel model =
      skyex.Train(p.matrix, p.labels, splits[0].train);

  ASSERT_NE(model.preference, nullptr);
  EXPECT_FALSE(model.group1.empty());
  EXPECT_GT(model.cutoff_ratio, 0.0);
  EXPECT_LE(model.cutoff_ratio, 1.0);
  // Group 1 holds the strong signals, not the noise column.
  for (const RankedFeature& f : model.group1) {
    EXPECT_NE(f.column, 4u) << "noise feature in the top group";
  }
  // The description is human-readable (explainability claim).
  const std::string desc = model.Describe(p.matrix.names);
  EXPECT_NE(desc.find("high("), std::string::npos);
  EXPECT_NE(desc.find("c_t"), std::string::npos);
}

TEST(SkyExTTest, LabelsTestSetWithGoodF1) {
  const Problem p = MakeProblem(4000, 0.1, 11);
  const SkyExT skyex;
  const auto splits = eval::DisjointTrainingSplits(p.matrix.rows, 0.1, 1, 2);
  const SkyExTModel model =
      skyex.Train(p.matrix, p.labels, splits[0].train);
  const std::vector<uint8_t> predicted =
      SkyExT::Label(p.matrix, splits[0].test, model);

  std::vector<uint8_t> truth;
  truth.reserve(splits[0].test.size());
  for (size_t r : splits[0].test) truth.push_back(p.labels[r]);
  const eval::ConfusionMatrix m = eval::Confusion(predicted, truth);
  EXPECT_GT(m.F1(), 0.75) << m.ToString();
}

// Theorem 2 / Lemma 1 sanity: the cut-off learned on one sample is
// near-optimal on a disjoint sample.
TEST(SkyExTTest, LearnedCutoffIsNearOptimal) {
  const Problem p = MakeProblem(6000, 0.1, 13);
  const SkyExT skyex;
  const auto splits = eval::DisjointTrainingSplits(p.matrix.rows, 0.1, 1, 3);
  const SkyExTModel model =
      skyex.Train(p.matrix, p.labels, splits[0].train);

  // F1 with the learned c_t on the test set.
  const std::vector<uint8_t> predicted =
      SkyExT::Label(p.matrix, splits[0].test, model);
  std::vector<uint8_t> truth;
  for (size_t r : splits[0].test) truth.push_back(p.labels[r]);
  const double learned_f1 = eval::Confusion(predicted, truth).F1();

  // Oracle optimum c* for the same preference on the test set.
  const CutoffSweep oracle = SweepCutoffOverSkylines(
      p.matrix, splits[0].test, p.labels, *model.preference);

  EXPECT_LE(learned_f1, oracle.best_f1 + 1e-9);
  // "Near-optimal": within a few percent (the paper reports ≈2% average).
  EXPECT_GT(learned_f1, oracle.best_f1 - 0.08) << "learned " << learned_f1
                                               << " oracle "
                                               << oracle.best_f1;
}

TEST(SkyExTTest, AblationsRun) {
  const Problem p = MakeProblem(1500, 0.15, 17);
  const auto rows = Iota(p.matrix.rows);
  SkyExTOptions no_priority;
  no_priority.use_priority = false;
  const SkyExTModel m1 = SkyExT(no_priority).Train(p.matrix, p.labels, rows);
  EXPECT_TRUE(m1.group2.empty());

  SkyExTOptions no_dedup;
  no_dedup.use_mi_dedup = false;
  const SkyExTModel m2 = SkyExT(no_dedup).Train(p.matrix, p.labels, rows);
  EXPECT_NE(m2.preference, nullptr);
}

TEST(SkyExTTest, DegenerateTrainingSets) {
  const Problem p = MakeProblem(300, 0.1, 19);
  const SkyExT skyex;
  // Single-row training set must not crash.
  const SkyExTModel model = skyex.Train(p.matrix, p.labels, {0});
  EXPECT_NE(model.preference, nullptr);
  const std::vector<uint8_t> predicted =
      SkyExT::Label(p.matrix, Iota(p.matrix.rows), model);
  EXPECT_EQ(predicted.size(), p.matrix.rows);
}

// A projected model labels the compact matrix as the original labels the
// full one, both for a priority of Pareto groups (the presorted peel) and
// for a nested tree that does not compile (the BNL fallback).
TEST(ProjectedModelTest, CompactMatrixLabelsLikeTheFullOne) {
  const Problem p = MakeProblem(400, 0.1, 23);
  std::vector<std::unique_ptr<skyline::Preference>> trees;
  {
    std::vector<std::unique_ptr<skyline::Preference>> group;
    group.push_back(skyline::High(4));
    group.push_back(skyline::High(0));
    std::vector<std::unique_ptr<skyline::Preference>> parts;
    parts.push_back(skyline::ParetoOf(std::move(group)));
    parts.push_back(skyline::High(2));
    trees.push_back(skyline::PriorityOf(std::move(parts)));
  }
  {
    std::vector<std::unique_ptr<skyline::Preference>> inner;
    inner.push_back(skyline::High(2));
    inner.push_back(skyline::Low(4));
    std::vector<std::unique_ptr<skyline::Preference>> outer;
    outer.push_back(skyline::PriorityOf(std::move(inner)));
    outer.push_back(skyline::High(1));
    trees.push_back(skyline::ParetoOf(std::move(outer)));
  }
  ASSERT_FALSE(skyline::Compile(*trees[1]).has_value());
  for (std::unique_ptr<skyline::Preference>& tree : trees) {
    SkyExTModel model;
    model.preference = std::move(tree);
    model.cutoff_ratio = 0.2;
    std::string error;
    const std::optional<ProjectedModel> projected =
        ProjectModel(model, p.matrix.cols, &error);
    ASSERT_TRUE(projected.has_value()) << error;
    const ml::FeatureMatrix compact =
        p.matrix.SelectColumns(projected->columns);
    const std::vector<size_t> rows = Iota(p.matrix.rows);
    EXPECT_EQ(SkyExT::Label(compact, rows, projected->model),
              SkyExT::Label(p.matrix, rows, model));
  }
}

TEST(ProjectedModelTest, RejectsIndicesOutsideTheSchema) {
  SkyExTModel model;
  model.preference = skyline::High(5);
  std::string error;
  EXPECT_FALSE(ProjectModel(model, 5, &error).has_value());
  EXPECT_EQ(error,
            "model references feature index 5 but the LGM-X schema has 5 "
            "features");
  const std::optional<ProjectedModel> projected =
      ProjectModel(model, 6, &error);
  ASSERT_TRUE(projected.has_value());
  EXPECT_EQ(projected->columns, std::vector<size_t>{5});
  EXPECT_FALSE(ProjectModel(SkyExTModel{}, 6, &error).has_value());
}

// ------------------------------------------------------------ SkyEx-F / -D

TEST(SkyExFTest, FindsSeparatingCutoff) {
  const Problem p = MakeProblem(2000, 0.1, 23);
  const SkyExFResult result = RunSkyExF(
      p.matrix, Iota(p.matrix.rows), p.labels, {0, 1, 2});
  EXPECT_GT(result.f1, 0.6);
  EXPECT_GT(result.precision, 0.0);
  EXPECT_GT(result.recall, 0.0);
}

TEST(SkyExDTest, UnsupervisedCutoffIsReasonable) {
  const Problem p = MakeProblem(2000, 0.1, 29);
  const SkyExDResult result =
      RunSkyExD(p.matrix, Iota(p.matrix.rows), {0, 1, 2});
  std::vector<uint8_t> truth = p.labels;
  const eval::ConfusionMatrix m = eval::Confusion(result.predicted, truth);
  // Unsupervised: weaker than SkyEx-T but far better than random.
  EXPECT_GT(m.F1(), 0.3) << m.ToString();
  EXPECT_GE(result.cutoff_layer, 1u);
}

}  // namespace
}  // namespace skyex::core
