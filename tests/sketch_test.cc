// Tests for the bottom-k bigram sketch (features/sketch.h) and the
// stage-1 pre-filter built on it: estimate quality against exact bigram
// Jaccard, determinism, and — further down — the serving-path pin that
// --prefilter-threshold=0 is bit-identical to no pre-filter at all.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/spatial_entity.h"
#include "eval/sampling.h"
#include "features/lgm_x.h"
#include "features/sketch.h"
#include "text/normalize.h"

namespace skyex {
namespace {

using features::BuildTokenSketch;
using features::EstimatePair;
using features::EstimateResemblance;
using features::EntitySketch;
using features::TokenSketch;
using features::kSketchRegisters;

// Exact Jaccard over distinct character bigrams (the quantity the sketch
// estimates; distinct-set semantics, single-char fallback included).
double ExactBigramJaccard(const std::string& a, const std::string& b) {
  auto grams = [](const std::string& s) {
    std::set<std::string> out;
    if (s.size() == 1) out.insert(s);
    for (size_t i = 0; i + 2 <= s.size(); ++i) out.insert(s.substr(i, 2));
    return out;
  };
  const std::set<std::string> ga = grams(a);
  const std::set<std::string> gb = grams(b);
  if (ga.empty() && gb.empty()) return 1.0;
  if (ga.empty() || gb.empty()) return 0.0;
  size_t inter = 0;
  for (const std::string& g : ga) inter += gb.count(g);
  return static_cast<double>(inter) /
         static_cast<double>(ga.size() + gb.size() - inter);
}

TEST(TokenSketchTest, EmptyAndSingleChar) {
  EXPECT_TRUE(BuildTokenSketch("").empty());
  const TokenSketch one = BuildTokenSketch("a");
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(EstimateResemblance(one, BuildTokenSketch("a")), 1.0);
  EXPECT_EQ(EstimateResemblance(one, BuildTokenSketch("b")), 0.0);
}

TEST(TokenSketchTest, EmptyVsNonEmptyConventions) {
  const TokenSketch empty = BuildTokenSketch("");
  const TokenSketch full = BuildTokenSketch("cafe noir");
  EXPECT_EQ(EstimateResemblance(empty, empty), 1.0);
  EXPECT_EQ(EstimateResemblance(empty, full), 0.0);
  EXPECT_EQ(EstimateResemblance(full, empty), 0.0);
}

TEST(TokenSketchTest, DeterministicAndOrderIndependentContent) {
  const TokenSketch s1 = BuildTokenSketch("cafe vivaldi vestergade");
  const TokenSketch s2 = BuildTokenSketch("cafe vivaldi vestergade");
  ASSERT_EQ(s1.count, s2.count);
  EXPECT_EQ(s1.values, s2.values);
  // Ascending, no duplicates among populated registers.
  for (uint32_t i = 1; i < s1.count; ++i) {
    EXPECT_LT(s1.values[i - 1], s1.values[i]);
  }
}

TEST(TokenSketchTest, ExactForSmallStrings) {
  // Strings with fewer than k distinct bigrams sketch the whole set, so the
  // estimate must equal the exact distinct-bigram Jaccard.
  const std::vector<std::string> corpus = {
      "cafe noir",     "cafe noire",     "vestergade 12", "vestergade 21",
      "hc andersen",   "h c andersens",  "a",             "ab",
      "pizza milano",  "pizzeria milano"};
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      ASSERT_LT(BuildTokenSketch(a).count, kSketchRegisters);
      EXPECT_DOUBLE_EQ(
          EstimateResemblance(BuildTokenSketch(a), BuildTokenSketch(b)),
          ExactBigramJaccard(a, b))
          << "a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(TokenSketchTest, EstimateTracksJaccardOnLongStrings) {
  // Strings with more distinct bigrams than registers: the bottom-k
  // estimate should stay close to the exact Jaccard.
  std::mt19937_64 rng(17);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz ";
  for (int trial = 0; trial < 40; ++trial) {
    std::string a;
    for (int i = 0; i < 120; ++i) a.push_back(alphabet[rng() % alphabet.size()]);
    // b = a with a mutation rate between 0 and ~40%.
    std::string b = a;
    const int mutations = trial * 2;
    for (int m = 0; m < mutations; ++m) {
      b[rng() % b.size()] = alphabet[rng() % alphabet.size()];
    }
    const double est =
        EstimateResemblance(BuildTokenSketch(a), BuildTokenSketch(b));
    const double exact = ExactBigramJaccard(a, b);
    EXPECT_NEAR(est, exact, 0.25)
        << "trial " << trial << " exact=" << exact << " est=" << est;
  }
}

TEST(TokenSketchTest, SketchSurvivesNormalizedUtf8) {
  const std::string a = text::Normalize("Caf\xC3\xA9 \xC3\x98sterbro 12");
  const std::string b = text::Normalize("Cafe Oesterbro 12");
  // Normalization folds both to the same ASCII, so the sketches agree.
  EXPECT_EQ(EstimateResemblance(BuildTokenSketch(a), BuildTokenSketch(b)),
            1.0);
}

TEST(EntitySketchTest, PairEstimateTakesBestAttributeAndIsRecallSafe) {
  EntitySketch both_full{BuildTokenSketch("cafe noir"),
                         BuildTokenSketch("vestergade 12")};
  EntitySketch same_addr{BuildTokenSketch("burger palace"),
                         BuildTokenSketch("vestergade 12")};
  // Names differ but the addresses match: the pair survives on its best
  // attribute — a true match with a corrupted name must not be dropped.
  EXPECT_EQ(EstimatePair(both_full, same_addr), 1.0);

  // Nothing matches on any attribute: low estimate, droppable.
  EntitySketch unrelated{BuildTokenSketch("burger palace"),
                         BuildTokenSketch("algade 7")};
  EXPECT_LT(EstimatePair(both_full, unrelated), 0.3);

  // Missing names on one side: only the addresses are comparable.
  EntitySketch no_name{BuildTokenSketch(""), BuildTokenSketch("vestergade 12")};
  EXPECT_EQ(EstimatePair(both_full, no_name), 1.0);
  EntitySketch no_name_other_addr{BuildTokenSketch(""),
                                  BuildTokenSketch("algade 7")};
  EXPECT_LT(EstimatePair(both_full, no_name_other_addr), 0.3);

  // No comparable attribute at all: never drop.
  EntitySketch blank{BuildTokenSketch(""), BuildTokenSketch("")};
  EXPECT_EQ(EstimatePair(both_full, blank), 1.0);
  EXPECT_EQ(EstimatePair(blank, blank), 1.0);
}

// --------------------------------------------------- Batch pre-filter pin

data::SpatialEntity MakeSketchEntity(const std::string& name,
                                     const std::string& street, int number,
                                     double lat, double lon) {
  data::SpatialEntity e;
  e.name = name;
  e.address_name = street;
  e.address_number = number;
  e.location = geo::GeoPoint{lat, lon, true};
  return e;
}

TEST(PrefilterBatchTest, ThresholdZeroReturnsInputUnchanged) {
  data::Dataset dataset;
  dataset.entities.push_back(
      MakeSketchEntity("Cafe Noir", "Vestergade", 12, 57.0, 9.9));
  dataset.entities.push_back(
      MakeSketchEntity("Cafe Noire", "Vestergade", 12, 57.0001, 9.9));
  dataset.entities.push_back(
      MakeSketchEntity("Burger Palace", "Algade", 7, 57.0, 9.9002));
  dataset.entities.push_back(
      MakeSketchEntity("Frisor Klip", "Boulevarden", 31, 57.0002, 9.9));
  const features::LgmXExtractor extractor =
      features::LgmXExtractor::FromCorpus(dataset);
  const std::vector<geo::CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 3},
                                                 {2, 3}};

  // Threshold 0 (and below) must hand the input back untouched — the
  // batch half of the --prefilter-threshold=0 bit-identity guarantee.
  size_t dropped = 123;
  EXPECT_EQ(extractor.PrefilterPairs(dataset, pairs, 0.0, &dropped), pairs);
  EXPECT_EQ(dropped, 0u);
  dropped = 123;
  EXPECT_EQ(extractor.PrefilterPairs(dataset, pairs, -1.0, &dropped), pairs);
  EXPECT_EQ(dropped, 0u);

  // A real threshold keeps an order-preserving subsequence, accounts for
  // every discarded pair, keeps the near-duplicate, and drops unrelated
  // neighbors.
  const auto kept = extractor.PrefilterPairs(dataset, pairs, 0.35, &dropped);
  EXPECT_EQ(dropped, pairs.size() - kept.size());
  EXPECT_GT(dropped, 0u);
  size_t cursor = 0;
  for (const geo::CandidatePair& p : kept) {
    while (cursor < pairs.size() && pairs[cursor] != p) ++cursor;
    ASSERT_LT(cursor, pairs.size()) << "kept pair not an input subsequence";
    ++cursor;
  }
  EXPECT_NE(std::find(kept.begin(), kept.end(), geo::CandidatePair{0, 1}),
            kept.end());
}

// -------------------------------------------------- Serving pipeline pin

// The serving-path pin promised at the top of this file: MatchRecord with
// --prefilter-threshold=0 is bit-identical to no pre-filter at all, with
// the text LRU on or off; a positive threshold only ever removes matches
// (identical scores on survivors) and never the true duplicate, whose
// identical text sketches at estimate 1.0.
class PrefilterServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::NorthDkOptions options;
    options.num_entities = 600;
    options.seed = 41;
    // Noise generators off: these tests pin pipeline mechanics, not
    // robustness (mirrors the incremental-linker test setup).
    options.chain_ratio = 0.0;
    options.generic_name_ratio = 0.0;
    options.colocated_ratio = 0.0;
    options.mall_member_prob = 0.0;
    options.twin_negative_prob = 0.0;
    options.duplicate_rename_prob = 0.0;
    prepared_ = new core::PreparedData(core::PrepareNorthDk(options));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }
  static core::PreparedData* prepared_;
};

core::PreparedData* PrefilterServingTest::prepared_ = nullptr;

TEST_F(PrefilterServingTest, ThresholdZeroIsBitIdenticalAndFilterIsSafe) {
  const auto& d = *prepared_;
  const auto split = eval::RandomSplit(d.pairs.size(), 0.15, 3);
  const core::SkyExT skyex;
  const auto model = skyex.Train(d.features, d.pairs.labels, split.train);
  std::vector<size_t> accepted;
  for (size_t r : split.train) {
    if (d.pairs.labels[r]) accepted.push_back(r);
  }
  ASSERT_FALSE(accepted.empty());

  auto make_linker = [&](core::IncrementalLinkerOptions options) {
    return core::IncrementalLinker(
        d.dataset, features::LgmXExtractor::FromCorpus(d.dataset),
        core::SkyExTModel{model.preference->Clone(), model.cutoff_ratio,
                          {}, {}, 0.0},
        d.features, accepted, options);
  };
  core::IncrementalLinkerOptions cached_opts;  // threshold 0, LRU on
  core::IncrementalLinkerOptions uncached_opts;
  uncached_opts.text_cache_capacity = 0;
  core::IncrementalLinkerOptions filtered_opts;
  filtered_opts.prefilter_threshold = 0.35;
  core::IncrementalLinker cached = make_linker(cached_opts);
  core::IncrementalLinker uncached = make_linker(uncached_opts);
  core::IncrementalLinker filtered = make_linker(filtered_opts);

  // A probe stream of perturbed duplicates, played twice so the second
  // pass runs against a warm LRU.
  constexpr size_t kProbes = 30;
  size_t cached_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kProbes; ++i) {
      data::SpatialEntity probe = d.dataset[i];
      probe.id = 900000 + i;
      probe.location.lat += 1e-5;

      obs::LinkStats cs, us, fs;
      const auto expect = cached.MatchRecord(probe, &cs);
      const auto got = uncached.MatchRecord(probe, &us);

      // Bit-identity: threshold 0, either cache configuration.
      ASSERT_EQ(got.size(), expect.size()) << "probe " << i;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].index, expect[k].index) << "probe " << i;
        EXPECT_EQ(got[k].score, expect[k].score) << "probe " << i;  // exact
      }
      EXPECT_EQ(cs.prefilter_dropped, 0u);
      EXPECT_EQ(us.prefilter_dropped, 0u);
      // Cache accounting: every candidate is either a hit or a miss;
      // capacity 0 never hits.
      EXPECT_EQ(cs.lru_hits + cs.lru_misses, cs.candidates);
      EXPECT_EQ(us.lru_hits, 0u);
      EXPECT_EQ(us.lru_misses, us.candidates);
      cached_hits += cs.lru_hits;

      // A filtered linker returns a subset with identical scores, and an
      // identical-text duplicate (sketch estimate 1.0) always survives.
      const auto kept = filtered.MatchRecord(probe, &fs);
      EXPECT_EQ(fs.lru_hits + fs.lru_misses, fs.candidates);
      EXPECT_LE(fs.prefilter_dropped, fs.candidates);
      size_t cursor = 0;
      for (const core::ScoredMatch& m : kept) {
        while (cursor < expect.size() && expect[cursor].index != m.index) {
          ++cursor;
        }
        ASSERT_LT(cursor, expect.size())
            << "probe " << i << ": filtered match " << m.index
            << " absent from the unfiltered set";
        EXPECT_EQ(m.score, expect[cursor].score) << "probe " << i;
        ++cursor;
      }
      bool expect_has_target = false;
      for (const core::ScoredMatch& m : expect) {
        if (m.index == i) expect_has_target = true;
      }
      if (expect_has_target) {
        bool kept_has_target = false;
        for (const core::ScoredMatch& m : kept) {
          if (m.index == i) kept_has_target = true;
        }
        EXPECT_TRUE(kept_has_target) << "probe " << i;
      }
    }
  }
  // The warm pass must have hit the LRU.
  EXPECT_GT(cached_hits, 0u);

  // A probe whose text matches nothing nearby: with a threshold, every
  // candidate is droppable, and the drop counter proves the filter ran.
  data::SpatialEntity stranger;
  stranger.name = "helt anden forretning";
  stranger.address_name = "anden vej";
  stranger.address_number = 99;
  stranger.location = d.dataset[0].location;
  obs::LinkStats ss;
  filtered.MatchRecord(stranger, &ss);
  ASSERT_GT(ss.candidates, 0u);
  EXPECT_GT(ss.prefilter_dropped, 0u);
}

}  // namespace
}  // namespace skyex
