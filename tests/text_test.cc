#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/ngram.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"
#include "text/token_similarity.h"
#include "text/tokenize.h"

namespace skyex::text {
namespace {

// ---------------------------------------------------------------- Normalize

TEST(Normalize, LowercasesAscii) {
  EXPECT_EQ(FoldAccents("Restaurant AMBIANCE"), "restaurant ambiance");
}

TEST(Normalize, FoldsDanishLetters) {
  EXPECT_EQ(FoldAccents("Frisør"), "frisoer");
  EXPECT_EQ(FoldAccents("Smørrebrød"), "smoerrebroed");
  EXPECT_EQ(FoldAccents("Århus"), "aarhus");
  EXPECT_EQ(FoldAccents("tandlæge"), "tandlaege");
}

TEST(Normalize, FoldsCommonAccents) {
  EXPECT_EQ(FoldAccents("Café"), "cafe");
  EXPECT_EQ(FoldAccents("Señor"), "senor");
  EXPECT_EQ(FoldAccents("Müller"), "muller");
  EXPECT_EQ(FoldAccents("crème brûlée"), "creme brulee");
}

TEST(Normalize, StripsPunctuation) {
  EXPECT_EQ(StripPunctuation("jensen's cafe-bar"), "jensen s cafe bar");
}

TEST(Normalize, CollapsesWhitespace) {
  EXPECT_EQ(CollapseWhitespace("  a   b  "), "a b");
  EXPECT_EQ(CollapseWhitespace(""), "");
  EXPECT_EQ(CollapseWhitespace("   "), "");
}

TEST(Normalize, FullPipeline) {
  EXPECT_EQ(Normalize("  Café  \"Ambiance\", Nørregade!  "),
            "cafe ambiance noerregade");
}

// The normaliser's character classes are the "C" locale's, the one a
// program is in until it calls setlocale: for each of the 256 byte values,
// every stage and the whole pipeline give what <cctype> gives.
TEST(Normalize, ClassifiesEveryByteAsTheCLocaleDoes) {
  const auto cctype_strip = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : ' ');
    }
    return out;
  };
  const auto cctype_collapse = [](const std::string& s) {
    std::string out;
    bool in_space = true;
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out.push_back(' ');
        in_space = true;
      } else {
        out.push_back(c);
        in_space = false;
      }
    }
    if (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  };
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    const std::string alone(1, c);
    const std::string inside = std::string("a") + c + "b";
    if (v < 0x80) {
      EXPECT_EQ(FoldAccents(alone), std::string(1, static_cast<char>(
                                                       std::tolower(v))))
          << "byte " << v;
    }
    EXPECT_EQ(StripPunctuation(alone), cctype_strip(alone)) << "byte " << v;
    EXPECT_EQ(CollapseWhitespace(inside), cctype_collapse(inside))
        << "byte " << v;
    for (const std::string& s : {alone, inside}) {
      EXPECT_EQ(Normalize(s), cctype_collapse(cctype_strip(FoldAccents(s))))
          << "byte " << v;
    }
  }
}

// ----------------------------------------------------------------- Tokenize

TEST(Tokenize, SplitsOnWhitespace) {
  const std::vector<std::string> tokens = Tokenize("restaurant la perla");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "restaurant");
  EXPECT_EQ(tokens[2], "perla");
}

TEST(Tokenize, EmptyInput) { EXPECT_TRUE(Tokenize("").empty()); }

// Tokens split at exactly the bytes <cctype>'s isspace names in the "C"
// locale, for each of the 256 byte values.
TEST(Tokenize, SplitsAtTheCLocaleSpacesOfEveryByte) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    const std::string input = std::string("ab") + c + "cd";
    const std::vector<std::string> want =
        std::isspace(v) ? std::vector<std::string>{"ab", "cd"}
                        : std::vector<std::string>{input};
    EXPECT_EQ(Tokenize(input), want) << "byte " << v;
    EXPECT_EQ(Tokenize(std::string(1, c)),
              std::isspace(v) ? std::vector<std::string>{}
                              : std::vector<std::string>{std::string(1, c)})
        << "byte " << v;
  }
}

TEST(Tokenize, SortTokensAlphanumerically) {
  EXPECT_EQ(SortTokens("perla la restaurant"), "la perla restaurant");
}

// ------------------------------------------------------------------- Ngrams

TEST(Ngram, Bigrams) {
  const auto grams = CharNgrams("abcd", 2);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "ab");
  EXPECT_EQ(grams[2], "cd");
}

TEST(Ngram, ShortStringYieldsWholeString) {
  const auto grams = CharNgrams("a", 2);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "a");
}

TEST(Ngram, SkipGramsIncludeSkips) {
  // "abc", max_skip 1 → ab, ac, bc.
  const auto grams = SkipGrams("abc", 1);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "ab");
  EXPECT_EQ(grams[1], "ac");
  EXPECT_EQ(grams[2], "bc");
}

TEST(Ngram, MultisetJaccardIdentical) {
  const auto a = CharNgrams("night", 2);
  EXPECT_DOUBLE_EQ(MultisetJaccard(a, a), 1.0);
}

TEST(Ngram, MultisetDiceKnownValue) {
  // "night" bigrams: ni ig gh ht; "nacht": na ac ch ht → 1 common of 4+4.
  const auto a = CharNgrams("night", 2);
  const auto b = CharNgrams("nacht", 2);
  EXPECT_DOUBLE_EQ(MultisetDice(a, b), 2.0 * 1.0 / 8.0);
}

TEST(Ngram, EmptyConventions) {
  const std::vector<std::string> empty;
  const auto a = CharNgrams("ab", 2);
  EXPECT_DOUBLE_EQ(MultisetJaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(MultisetJaccard(empty, a), 0.0);
  EXPECT_DOUBLE_EQ(MultisetCosine(empty, a), 0.0);
}

// ----------------------------------------------------------- Edit distances

TEST(EditDistance, LevenshteinKnownValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(EditDistance, DamerauCountsTranspositionAsOne) {
  EXPECT_EQ(LevenshteinDistance("ca", "ac"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "ac"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("amelie", "ameile"), 1u);
}

TEST(EditDistance, NormalizedSimilarities) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

// --------------------------------------------------------------- Jaro family

TEST(Jaro, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
  EXPECT_NEAR(JaroSimilarity("JELLYFISH", "SMELLYFISH"), 0.896296, 1e-5);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(Jaro, WinklerBoostsSharedPrefix) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("DIXON", "DICKSONX"), 0.813333, 1e-5);
  // Below the boost threshold the plain Jaro value is returned.
  const double jaro = JaroSimilarity("abcdef", "fedcba");
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abcdef", "fedcba"), jaro);
}

TEST(Jaro, ReversedRewardsSuffix) {
  // Common suffix, different prefix: the reversed variant scores higher.
  EXPECT_GT(ReversedJaroWinklerSimilarity("xxlhuset", "aalhuset"),
            JaroSimilarity("xxlhuset", "aalhuset"));
}

TEST(Jaro, SortedHandlesTokenReorder) {
  EXPECT_DOUBLE_EQ(
      SortedJaroWinklerSimilarity("cafe amelie", "amelie cafe"), 1.0);
}

TEST(Jaro, PermutedFindsBestPermutation) {
  EXPECT_DOUBLE_EQ(
      PermutedJaroWinklerSimilarity("perla la bella", "bella perla la"), 1.0);
  // Falls back gracefully for single tokens.
  EXPECT_DOUBLE_EQ(PermutedJaroWinklerSimilarity("abc", "abc"), 1.0);
}

// ---------------------------------------------------------- Token measures

TEST(TokenSimilarity, MongeElkanIdentical) {
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("cafe amelie", "cafe amelie"), 1.0);
}

TEST(TokenSimilarity, MongeElkanPartialOverlap) {
  const double sim = MongeElkanSimilarity("restaurant amelie", "amelie");
  EXPECT_GT(sim, 0.5);
  EXPECT_LT(sim, 1.0);
}

TEST(TokenSimilarity, SoftJaccardMatchesSimilarTokens) {
  // One typo per token still matches softly.
  const double sim = SoftJaccardSimilarity("amelie cafe", "amelie kafe");
  EXPECT_GT(sim, 0.8);
}

TEST(TokenSimilarity, SoftJaccardDisjoint) {
  EXPECT_DOUBLE_EQ(SoftJaccardSimilarity("aaa bbb", "xyz qrs"), 0.0);
}

TEST(TokenSimilarity, DaviesHandlesAbbreviation) {
  // The initial-letter abbreviation matches the full token perfectly.
  EXPECT_GT(DaviesDeSallesSimilarity("j jensen", "jens jensen"), 0.9);
}

TEST(TokenSimilarity, DaviesIdenticalAndDisjoint) {
  EXPECT_DOUBLE_EQ(DaviesDeSallesSimilarity("main st", "main st"), 1.0);
  EXPECT_LT(DaviesDeSallesSimilarity("aaa", "zzz"), 0.3);
}

// ------------------------------------------------------------------ Registry

TEST(Registry, CountsMatchTable1) {
  // 14 basic measures, 13 sortable (Table 1 of the paper).
  EXPECT_EQ(BasicSimilarities().size(), 14u);
  EXPECT_EQ(SortableSimilarities().size(), 13u);
}

TEST(Registry, NamesInSchemaOrder) {
  // The LGM-X schema lays its columns out in this order, and a saved
  // model's feature indices point into that schema.
  std::vector<std::string_view> names;
  for (const NamedSimilarity& m : BasicSimilarities()) names.push_back(m.name);
  EXPECT_EQ(names, (std::vector<std::string_view>{
                       "levenshtein", "damerau_levenshtein", "jaro",
                       "jaro_winkler", "jaro_winkler_reversed",
                       "jaro_winkler_sorted", "jaro_winkler_permuted",
                       "cosine_bigrams", "jaccard_bigrams", "dice_bigrams",
                       "skipgram", "monge_elkan", "soft_jaccard", "davies"}));
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const NamedSimilarity& m : BasicSimilarities()) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
}

TEST(Registry, FindByName) {
  EXPECT_NE(FindSimilarity("levenshtein"), nullptr);
  EXPECT_NE(FindSimilarity("monge_elkan"), nullptr);
  EXPECT_EQ(FindSimilarity("nonexistent"), nullptr);
}

// Property sweep: every registered measure is bounded, reflexive and
// symmetric-ish on a set of tricky string pairs.
class SimilarityPropertyTest
    : public ::testing::TestWithParam<NamedSimilarity> {};

TEST_P(SimilarityPropertyTest, BoundedInUnitInterval) {
  const auto& m = GetParam();
  const std::pair<std::string, std::string> cases[] = {
      {"", ""},
      {"a", ""},
      {"", "b"},
      {"cafe", "cafe"},
      {"cafe amelie", "amelie cafe"},
      {"restaurant ambiance", "ambiançe restaurante"},
      {"x", "yyyyyyyyyyyyyyyyyyyyyy"},
      {"jensens frisoer", "jensen s frisor"},
  };
  for (const auto& [a, b] : cases) {
    const double sim = m.fn(a, b);
    EXPECT_GE(sim, 0.0) << m.name << " (" << a << ", " << b << ")";
    EXPECT_LE(sim, 1.0) << m.name << " (" << a << ", " << b << ")";
  }
}

TEST_P(SimilarityPropertyTest, IdenticalStringsScoreOne) {
  const auto& m = GetParam();
  EXPECT_DOUBLE_EQ(m.fn("grill hjoernet", "grill hjoernet"), 1.0) << m.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::ValuesIn(BasicSimilarities()),
    [](const ::testing::TestParamInfo<NamedSimilarity>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace skyex::text
