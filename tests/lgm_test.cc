#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lgm/frequent_terms.h"
#include "lgm/lgm_sim.h"
#include "lgm/list_split.h"
#include "text/edit_distance.h"
#include "text/jaro.h"

namespace skyex::lgm {
namespace {

double Jw(std::string_view a, std::string_view b) {
  return text::JaroWinklerSimilarity(a, b);
}

FrequentTermDictionary TypeWordDict() {
  return FrequentTermDictionary::FromTerms(
      {"cafe", "restaurant", "pizzeria", "bar"});
}

// ---------------------------------------------------------- Frequent terms

TEST(FrequentTerms, BuildPicksCorpusFrequentTerms) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 20; ++i) {
    corpus.push_back("cafe unique" + std::to_string(i));
  }
  corpus.push_back("solo name");
  FrequentTermOptions options;
  options.min_count = 5;
  const FrequentTermDictionary dict =
      FrequentTermDictionary::Build(corpus, options);
  EXPECT_TRUE(dict.Contains("cafe"));
  EXPECT_FALSE(dict.Contains("solo"));
  EXPECT_FALSE(dict.Contains("unique3"));
}

TEST(FrequentTerms, DocumentFrequencyNotTermFrequency) {
  // "ha ha ha ha ha" repeated in one string counts once.
  std::vector<std::string> corpus = {"haha haha haha haha haha"};
  FrequentTermOptions options;
  options.min_count = 2;
  const FrequentTermDictionary dict =
      FrequentTermDictionary::Build(corpus, options);
  EXPECT_FALSE(dict.Contains("haha"));
}

TEST(FrequentTerms, MinTermLengthFiltersShortTokens) {
  std::vector<std::string> corpus(10, "ab cdef");
  FrequentTermOptions options;
  options.min_count = 2;
  options.min_term_length = 3;
  const FrequentTermDictionary dict =
      FrequentTermDictionary::Build(corpus, options);
  EXPECT_FALSE(dict.Contains("ab"));
  EXPECT_TRUE(dict.Contains("cdef"));
}

// -------------------------------------------------------------- List split

TEST(ListSplit, SeparatesFrequentBaseAndMismatch) {
  const TermLists lists =
      SplitTermLists("cafe amelie vest", "restaurant ameli noord",
                     TypeWordDict(), Jw, 0.8);
  // Frequent: cafe | restaurant.
  ASSERT_EQ(lists.frequent_a.size(), 1u);
  EXPECT_EQ(lists.frequent_a[0], "cafe");
  ASSERT_EQ(lists.frequent_b.size(), 1u);
  EXPECT_EQ(lists.frequent_b[0], "restaurant");
  // Base: amelie ↔ ameli (loose match).
  ASSERT_EQ(lists.base_a.size(), 1u);
  EXPECT_EQ(lists.base_a[0], "amelie");
  EXPECT_EQ(lists.base_b[0], "ameli");
  // Mismatch: vest | noord.
  ASSERT_EQ(lists.mismatch_a.size(), 1u);
  EXPECT_EQ(lists.mismatch_a[0], "vest");
  EXPECT_EQ(lists.mismatch_b[0], "noord");
}

TEST(ListSplit, BaseListsStayAligned) {
  const TermLists lists =
      SplitTermLists("alpha beta", "beta alpha", TypeWordDict(),
                     Jw, 0.9);
  ASSERT_EQ(lists.base_a.size(), 2u);
  ASSERT_EQ(lists.base_b.size(), 2u);
  // Greedy matching pairs identical tokens regardless of position.
  for (size_t i = 0; i < lists.base_a.size(); ++i) {
    EXPECT_EQ(lists.base_a[i], lists.base_b[i]);
  }
  EXPECT_TRUE(lists.mismatch_a.empty());
}

// ------------------------------------------------------------------ LgmSim

TEST(LgmSim, IdenticalStringsScoreOne) {
  const LgmSim sim(TypeWordDict());
  EXPECT_NEAR(sim.Score("Cafe Amelie", "Cafe Amelie",
                        text::DamerauLevenshteinSimilarity),
              1.0, 1e-9);
}

TEST(LgmSim, FrequentTermMismatchCostsLittle) {
  const LgmSim sim(TypeWordDict());
  // Same core name, different frequent type word vs different core name.
  const double same_core = sim.Score("cafe amelie", "restaurant amelie",
                                     text::DamerauLevenshteinSimilarity);
  const double diff_core = sim.Score("cafe amelie", "cafe nordstjernen",
                                     text::DamerauLevenshteinSimilarity);
  EXPECT_GT(same_core, diff_core);
  EXPECT_GT(same_core, 0.65);
}

TEST(LgmSim, BeatsRawSimilarityOnReorderedNames) {
  const LgmSim sim(TypeWordDict());
  const double raw = text::DamerauLevenshteinSimilarity(
      "amelie vestergade", "vestergade amelie");
  const double meta = sim.Score("amelie vestergade", "vestergade amelie",
                                text::DamerauLevenshteinSimilarity);
  EXPECT_GT(meta, raw);
  EXPECT_GT(meta, 0.95);
}

TEST(LgmSim, IndividualScoresExposeListStructure) {
  const LgmSim sim(TypeWordDict());
  const ListScores scores = sim.IndividualScores(
      "cafe amelie vest", "restaurant ameli noord",
      text::DamerauLevenshteinSimilarity);
  EXPECT_GT(scores.base, 0.7);       // amelie ↔ ameli
  EXPECT_LT(scores.mismatch, 0.5);   // vest ↔ noord
  EXPECT_LT(scores.frequent, 0.6);   // cafe ↔ restaurant
}

TEST(LgmSim, ScoreIsBounded) {
  const LgmSim sim(TypeWordDict());
  const std::pair<const char*, const char*> cases[] = {
      {"", ""},
      {"cafe", ""},
      {"cafe", "cafe"},
      {"a b c d e", "f g h i j"},
  };
  for (const auto& [a, b] : cases) {
    const double s = sim.Score(a, b, Jw);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(LgmSim, CustomSortedScoreNeverHurts) {
  const LgmSim sim(TypeWordDict());
  const double raw = text::DamerauLevenshteinSimilarity(
      "perla bella", "bella perla");
  const double sorted =
      sim.CustomSortedScore("perla bella", "bella perla",
                            text::DamerauLevenshteinSimilarity);
  EXPECT_GE(sorted, raw);
}

}  // namespace
}  // namespace skyex::lgm
