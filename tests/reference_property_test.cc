// Property tests that cross-check the optimized implementations against
// slow, obviously-correct reference implementations on random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "ml/mlp.h"
#include "ml/gradient_boosting.h"
#include "text/edit_distance.h"
#include "text/jaro.h"

namespace skyex {
namespace {

std::string RandomWord(std::mt19937_64& rng, size_t max_len,
                       int alphabet = 6) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> char_dist(0, alphabet - 1);
  std::string s(len_dist(rng), 'a');
  for (char& c : s) c = static_cast<char>('a' + char_dist(rng));
  return s;
}

// ------------------------------------------ Levenshtein vs full matrix

size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> dp(a.size() + 1,
                                      std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] +
                               (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return dp[a.size()][b.size()];
}

class EditDistancePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EditDistancePropertyTest, MatchesReferenceMatrix) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = RandomWord(rng, 12);
    const std::string b = RandomWord(rng, 12);
    EXPECT_EQ(text::LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << a << " vs " << b;
  }
}

TEST_P(EditDistancePropertyTest, MetricProperties) {
  std::mt19937_64 rng(GetParam() + 100);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string a = RandomWord(rng, 10);
    const std::string b = RandomWord(rng, 10);
    const std::string c = RandomWord(rng, 10);
    const size_t ab = text::LevenshteinDistance(a, b);
    const size_t ba = text::LevenshteinDistance(b, a);
    EXPECT_EQ(ab, ba);  // symmetry
    EXPECT_EQ(text::LevenshteinDistance(a, a), 0u);  // identity
    // Triangle inequality.
    EXPECT_LE(text::LevenshteinDistance(a, c),
              ab + text::LevenshteinDistance(b, c));
    // Damerau never exceeds Levenshtein.
    EXPECT_LE(text::DamerauLevenshteinDistance(a, b), ab);
  }
}

TEST_P(EditDistancePropertyTest, JaroSymmetricAndBounded) {
  std::mt19937_64 rng(GetParam() + 200);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = RandomWord(rng, 10);
    const std::string b = RandomWord(rng, 10);
    const double ab = text::JaroSimilarity(a, b);
    EXPECT_NEAR(ab, text::JaroSimilarity(b, a), 1e-12);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    // Winkler only ever boosts.
    EXPECT_GE(text::JaroWinklerSimilarity(a, b) + 1e-12, ab);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistancePropertyTest,
                         ::testing::Range(0, 4));

// ----------------------------------------- MLP gradient sanity (loss ↓)

TEST(MlpTraining, LossDecreasesOverEpochs) {
  // XOR-like non-linear problem: a linear model cannot fit it; a trained
  // MLP must — this exercises the whole backprop path.
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(400, {"x", "y"});
  std::vector<uint8_t> labels(m.rows);
  std::vector<size_t> rows(m.rows);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t r = 0; r < m.rows; ++r) {
    rows[r] = r;
    const double x = unit(rng);
    const double y = unit(rng);
    m.Row(r)[0] = x;
    m.Row(r)[1] = y;
    labels[r] = (x > 0.5) != (y > 0.5) ? 1 : 0;
  }
  ml::MlpOptions options;
  options.hidden = {16, 8};
  options.epochs = 150;
  options.positive_weight = 1.0;
  ml::Mlp mlp(options);
  mlp.Fit(m, labels, rows);
  size_t correct = 0;
  for (size_t r : rows) {
    const bool predicted = mlp.PredictScore(m.Row(r)) >= 0.5;
    if (predicted == (labels[r] == 1)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(m.rows),
            0.9);
}

// ---------------------------------- Gradient boosting training dynamics

TEST(GradientBoostingTraining, MoreRoundsNeverHurtTrainingFit) {
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(600, {"a", "b", "c"});
  std::vector<uint8_t> labels(m.rows);
  std::vector<size_t> rows(m.rows);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t r = 0; r < m.rows; ++r) {
    rows[r] = r;
    for (int c = 0; c < 3; ++c) m.Row(r)[c] = unit(rng);
    labels[r] = (m.Row(r)[0] + 0.5 * m.Row(r)[1] > 0.8) ? 1 : 0;
  }
  const auto train_log_loss = [&](size_t rounds) {
    ml::GradientBoostingOptions options;
    options.num_rounds = rounds;
    ml::GradientBoosting gbm(options);
    gbm.Fit(m, labels, rows);
    double loss = 0.0;
    for (size_t r : rows) {
      const double p =
          std::clamp(gbm.PredictScore(m.Row(r)), 1e-9, 1.0 - 1e-9);
      loss -= labels[r] ? std::log(p) : std::log(1.0 - p);
    }
    return loss / static_cast<double>(m.rows);
  };
  const double loss_small = train_log_loss(5);
  const double loss_large = train_log_loss(60);
  EXPECT_LT(loss_large, loss_small);
  EXPECT_LT(loss_large, 0.2);
}

}  // namespace
}  // namespace skyex
