// Pins LGM-X extraction bit-identical to the per-measure LGM-Sim split it
// replaced. The reference namespace below freezes that implementation: it
// re-ran the split inside every LGM-Sim call (re-scoring the raw score,
// re-sorting and re-tokenizing both strings, allocating every term list
// and joined string). "Bit-identical" is equality of the doubles' bit
// patterns, checked for all 88 features of RowFromCache and of Extract,
// under both kernel implementations; CI re-runs the suite under
// ASan/UBSan at every SIMD dispatch level.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "data/northdk_generator.h"
#include "data/spatial_entity.h"
#include "features/lgm_x.h"
#include "geo/distance.h"
#include "geo/quadflex.h"
#include "lgm/frequent_terms.h"
#include "lgm/lgm_sim.h"
#include "lgm/list_split.h"
#include "text/edit_distance.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"
#include "text/tokenize.h"

namespace skyex {
namespace {

using features::LgmXExtractor;
using lgm::FrequentTermDictionary;
using lgm::LgmSim;
using lgm::ListScores;
using lgm::TermLists;

// ------------------------------------------- frozen per-measure reference

namespace reference {

TermLists SplitTermLists(const std::string& a, const std::string& b,
                         const FrequentTermDictionary& dict,
                         text::SimilarityFn token_sim,
                         double match_threshold) {
  TermLists lists;
  std::vector<std::string> rest_a;
  std::vector<std::string> rest_b;
  for (std::string& t : text::Tokenize(a)) {
    (dict.Contains(t) ? lists.frequent_a : rest_a).push_back(std::move(t));
  }
  for (std::string& t : text::Tokenize(b)) {
    (dict.Contains(t) ? lists.frequent_b : rest_b).push_back(std::move(t));
  }
  struct Candidate {
    double sim;
    size_t i;
    size_t j;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < rest_a.size(); ++i) {
    for (size_t j = 0; j < rest_b.size(); ++j) {
      const double sim = token_sim(rest_a[i], rest_b[j]);
      if (sim >= match_threshold) candidates.push_back({sim, i, j});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              if (x.i != y.i) return x.i < y.i;
              return x.j < y.j;
            });
  std::vector<bool> used_a(rest_a.size(), false);
  std::vector<bool> used_b(rest_b.size(), false);
  for (const Candidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = true;
    used_b[c.j] = true;
    lists.base_a.push_back(rest_a[c.i]);
    lists.base_b.push_back(rest_b[c.j]);
  }
  for (size_t i = 0; i < rest_a.size(); ++i) {
    if (!used_a[i]) lists.mismatch_a.push_back(std::move(rest_a[i]));
  }
  for (size_t j = 0; j < rest_b.size(); ++j) {
    if (!used_b[j]) lists.mismatch_b.push_back(std::move(rest_b[j]));
  }
  return lists;
}

TermLists SplitNormalized(const LgmSim& sim, std::string_view na,
                          std::string_view nb, text::SimilarityFn base_fn) {
  std::string a(na);
  std::string b(nb);
  if (base_fn(a, b) < sim.config().sort_threshold) {
    a = text::SortTokens(a);
    b = text::SortTokens(b);
  }
  return reference::SplitTermLists(a, b, sim.dictionary(), base_fn,
                                   sim.config().match_threshold);
}

ListScores IndividualScoresNormalized(const LgmSim& sim, std::string_view na,
                                      std::string_view nb,
                                      text::SimilarityFn base_fn) {
  const TermLists lists = SplitNormalized(sim, na, nb, base_fn);
  ListScores scores;
  scores.base = base_fn(text::JoinTokens(lists.base_a),
                        text::JoinTokens(lists.base_b));
  scores.mismatch = base_fn(text::JoinTokens(lists.mismatch_a),
                            text::JoinTokens(lists.mismatch_b));
  scores.frequent = base_fn(text::JoinTokens(lists.frequent_a),
                            text::JoinTokens(lists.frequent_b));
  return scores;
}

double ScoreNormalized(const LgmSim& sim, std::string_view na,
                       std::string_view nb, text::SimilarityFn base_fn) {
  const TermLists lists = SplitNormalized(sim, na, nb, base_fn);
  struct ListEntry {
    double weight;
    double score;
    bool active;
  };
  const auto score_pair = [&](const std::vector<std::string>& la,
                              const std::vector<std::string>& lb,
                              double weight) -> ListEntry {
    if (la.empty() && lb.empty()) return {weight, 0.0, false};
    if (la.empty() || lb.empty()) return {weight, 0.0, true};
    return {weight, base_fn(text::JoinTokens(la), text::JoinTokens(lb)),
            true};
  };
  const lgm::LgmSimConfig& config = sim.config();
  const ListEntry entries[3] = {
      score_pair(lists.base_a, lists.base_b, config.base_weight),
      score_pair(lists.mismatch_a, lists.mismatch_b, config.mismatch_weight),
      score_pair(lists.frequent_a, lists.frequent_b, config.frequent_weight),
  };
  double active_weight = 0.0;
  double weighted_score = 0.0;
  for (const ListEntry& e : entries) {
    if (!e.active) continue;
    active_weight += e.weight;
    weighted_score += e.weight * e.score;
  }
  if (active_weight <= 0.0) return 1.0;
  return weighted_score / active_weight;
}

// One textual attribute's 43 features, computed as the extractor did
// before the split was shared.
void TextFeatures(const LgmSim& sim, const std::string& a_norm,
                  const std::string& a_sorted, const std::string& b_norm,
                  const std::string& b_sorted, double* out) {
  const auto& basic = text::BasicSimilarities();
  const auto& sortable = text::SortableSimilarities();
  const text::SimilarityFn jw = text::FindSimilarity("jaro_winkler");
  size_t k = 0;
  std::vector<double> raw(basic.size());
  for (size_t m = 0; m < basic.size(); ++m) {
    raw[m] = basic[m].name == "jaro_winkler_sorted"
                 ? jw(a_sorted, b_sorted)
                 : basic[m].fn(a_norm, b_norm);
    out[k++] = raw[m];
  }
  const double sort_threshold = sim.config().sort_threshold;
  for (const text::NamedSimilarity& m : sortable) {
    const double raw_score = m.fn(a_norm, b_norm);
    out[k++] = raw_score >= sort_threshold
                   ? raw_score
                   : std::max(raw_score, m.fn(a_sorted, b_sorted));
  }
  for (const text::NamedSimilarity& m : sortable) {
    out[k++] = ScoreNormalized(sim, a_norm, b_norm, m.fn);
  }
  const ListScores scores = IndividualScoresNormalized(
      sim, a_norm, b_norm, text::DamerauLevenshteinSimilarity);
  out[k++] = scores.base;
  out[k++] = scores.mismatch;
  out[k++] = scores.frequent;
}

void Row(const LgmSim& name_sim, const LgmSim& addr_sim,
         const data::SpatialEntity& a, const LgmXExtractor::EntityText& ta,
         const data::SpatialEntity& b, const LgmXExtractor::EntityText& tb,
         size_t feature_count, double* out) {
  const features::LgmXOptions options;
  const size_t text_block = feature_count / 2 - 1;
  std::fill(out, out + feature_count, 0.0);
  if (!ta.name_norm.empty() && !tb.name_norm.empty()) {
    TextFeatures(name_sim, ta.name_norm, ta.name_sorted, tb.name_norm,
                 tb.name_sorted, out);
  }
  if (!ta.addr_norm.empty() && !tb.addr_norm.empty()) {
    TextFeatures(addr_sim, ta.addr_norm, ta.addr_sorted, tb.addr_norm,
                 tb.addr_sorted, out + text_block);
  }
  double* tail = out + 2 * text_block;
  if (a.address_number >= 0 && b.address_number >= 0) {
    const double delta = std::abs(a.address_number - b.address_number);
    tail[0] = 1.0 - std::min(delta, static_cast<double>(
                                        options.max_number_delta)) /
                        static_cast<double>(options.max_number_delta);
  }
  const double dist = geo::HaversineMeters(a.location, b.location);
  if (dist >= 0.0) {
    tail[1] = 1.0 - std::min(dist, options.max_distance_m) /
                        options.max_distance_m;
  }
}

}  // namespace reference

// ------------------------------------------------------------ fixtures

// Both LgmSim objects are kept next to the extractor built from copies of
// them, so the frozen reference scores with the same dictionaries.
struct Linker {
  LgmSim name_sim;
  LgmSim addr_sim;
  LgmXExtractor extractor;

  Linker(LgmSim name, LgmSim addr)
      : name_sim(std::move(name)),
        addr_sim(std::move(addr)),
        extractor(name_sim, addr_sim) {}
};

// The dictionaries LgmXExtractor::FromCorpus gathers from `dataset`.
Linker CorpusLinker(const data::Dataset& dataset) {
  std::vector<std::string> names;
  std::vector<std::string> addrs;
  for (const data::SpatialEntity& e : dataset.entities) {
    if (!e.name.empty()) names.push_back(text::Normalize(e.name));
    if (!e.address_name.empty()) {
      addrs.push_back(text::Normalize(e.address_name));
    }
  }
  lgm::FrequentTermOptions options;
  options.min_count = std::max<size_t>(3, dataset.size() / 500);
  return Linker(LgmSim(FrequentTermDictionary::Build(names, options)),
                LgmSim(FrequentTermDictionary::Build(addrs, options)));
}

// A hand-curated dictionary that makes whole adversarial strings frequent.
Linker StopListLinker() {
  const std::vector<std::string> terms = {
      "cafe", "restaurant", "bar", "pizza", "the", "and", "vej", "gade",
      "kro",  "hotel",      "ab"};
  return Linker(LgmSim(FrequentTermDictionary::FromTerms(terms)),
                LgmSim(FrequentTermDictionary::FromTerms(terms)));
}

data::SpatialEntity Entity(std::string name, std::string address,
                           int number, double lat, double lon) {
  data::SpatialEntity e;
  e.name = std::move(name);
  e.address_name = std::move(address);
  e.address_number = number;
  e.location = geo::GeoPoint{lat, lon, true};
  return e;
}

// Entities that stress the split: strings empty after normalization, one
// side made only of frequent terms, duplicate tokens, tied token
// similarities, strings longer than 64 characters, and non-ASCII text.
data::Dataset AdversarialDataset() {
  data::Dataset d;
  d.entities = {
      Entity("!!!", "--", 4, 57.0460, 9.9180),
      Entity("   ", "", -1, 57.0461, 9.9181),
      Entity("Cafe Restaurant", "Vej Gade", 4, 57.0462, 9.9182),
      Entity("cafe", "gade", 5, 57.0462, 9.9182),
      Entity("Cafe Amelie", "Vesterbro Gade", 12, 57.0463, 9.9183),
      Entity("amelie amelie cafe cafe", "gade gade vesterbro", 12, 57.0463,
             9.9183),
      Entity("bar bar bar", "vej vej", 1, 57.0464, 9.9184),
      Entity("ab ab ab ac", "ab ac ad", 2, 57.0465, 9.9185),
      Entity("ab ac ad ae", "ac ab", 2, 57.0465, 9.9185),
      Entity("abc abd abe", "xyz xzy yxz", 3, 57.0466, 9.9186),
      Entity("abx aby abz", "zyx yzx", 3, 57.0466, 9.9186),
      Entity("The Quite Extraordinarily Long Named Establishment Of Fine "
             "Dining And Drinking Vesterbro",
             "Kong Christian Den Niendes Allerhoejeste Og Meget Lange "
             "Boulevard Nord",
             77, 57.0467, 9.9187),
      Entity("Long Named Establishment Of Fine Dining And Drinking The "
             "Quite Extraordinarily Vesterbro Cafe",
             "Kong Christian Den Niendes Meget Lange Og Allerhoejeste "
             "Boulevard Syd",
             78, 57.0467, 9.9187),
      Entity("Café Smørrebrød Ærø", "Åboulevarden", 9, 57.0468, 9.9188),
      Entity("cafe smoerrebroed aeroe", "aaboulevarden", 9, 57.0468,
             9.9188),
      Entity("Kro \xff\xfe Mojibake \xc3", "Gade \xe2\x82", 6, 57.0469,
             9.9189),
      Entity("Ølstuen 北京 Kro", "Strøget", 10, 57.0470, 9.9190),
  };
  for (size_t i = 0; i < d.entities.size(); ++i) d.entities[i].id = i + 1;
  return d;
}

// Text state that skips Normalize, so raw non-ASCII bytes, invalid UTF-8,
// tabs and repeated spaces reach the tokenizer and the split.
std::vector<LgmXExtractor::EntityText> RawTexts() {
  const std::vector<std::pair<std::string, std::string>> raw = {
      {"café smørrebrød", "strøget øst"},
      {"smørrebrød café", "øst strøget"},
      {"caf\xff \xfe\xfd bar", "g\xc3 \xc3 gade"},
      {"tab\tseparated  double  spaced", " lead and trail "},
      {"x", "y"},
      {"北京 烤鸭 北京", "东 街"},
  };
  std::vector<LgmXExtractor::EntityText> out;
  for (const auto& [name, addr] : raw) {
    LgmXExtractor::EntityText t;
    t.name_norm = name;
    t.name_sorted = text::SortTokens(name);
    t.addr_norm = addr;
    t.addr_sorted = text::SortTokens(addr);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<geo::CandidatePair> AllPairs(size_t n) {
  std::vector<geo::CandidatePair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// Runs `body(impl)` once per kernel implementation, restoring the active
// one.
template <typename Body>
void ForEachKernelImpl(Body body) {
  const text::KernelImpl saved = text::ActiveKernelImpl();
  for (const text::KernelImpl impl :
       {text::KernelImpl::kOptimized, text::KernelImpl::kReference}) {
    SCOPED_TRACE(impl == text::KernelImpl::kOptimized ? "optimized kernels"
                                                      : "reference kernels");
    text::SetKernelImpl(impl);
    body(impl);
  }
  text::SetKernelImpl(saved);
}

// Compares RowFromCache and Extract against the frozen reference row for
// every pair; returns the number of differing features.
size_t CountMismatches(const Linker& linker, const data::Dataset& dataset,
                       const std::vector<LgmXExtractor::EntityText>& texts,
                       const std::vector<geo::CandidatePair>& pairs,
                       bool check_extract) {
  const LgmXExtractor& extractor = linker.extractor;
  const size_t n = extractor.feature_count();
  ml::FeatureMatrix matrix;
  if (check_extract) matrix = extractor.Extract(dataset, pairs);
  std::vector<double> want(n);
  std::vector<double> got(n);
  size_t mismatches = 0;
  for (size_t r = 0; r < pairs.size(); ++r) {
    const auto [i, j] = pairs[r];
    reference::Row(linker.name_sim, linker.addr_sim, dataset[i], texts[i],
                   dataset[j], texts[j], n, want.data());
    extractor.RowFromCache(dataset[i], texts[i], dataset[j], texts[j],
                           got.data());
    for (size_t f = 0; f < n; ++f) {
      const bool row_ok = SameBits(got[f], want[f]);
      const bool extract_ok =
          !check_extract || SameBits(matrix.Row(r)[f], want[f]);
      if (row_ok && extract_ok) continue;
      if (++mismatches <= 10) {
        ADD_FAILURE() << "pair (" << i << ", " << j << ") feature "
                      << extractor.feature_names()[f] << ": reference "
                      << want[f] << ", RowFromCache " << got[f]
                      << (check_extract
                              ? ", Extract " + std::to_string(
                                                   matrix.Row(r)[f])
                              : std::string());
      }
    }
  }
  return mismatches;
}

std::vector<LgmXExtractor::EntityText> EntityTexts(
    const data::Dataset& dataset) {
  std::vector<LgmXExtractor::EntityText> texts;
  texts.reserve(dataset.size());
  for (const data::SpatialEntity& e : dataset.entities) {
    texts.push_back(LgmXExtractor::ComputeEntityText(e));
  }
  return texts;
}

// --------------------------------------------------------------- tests

TEST(LgmEquivTest, QuadFlexPairsOfA2kWorldMatchTheReference) {
  data::NorthDkOptions options;
  options.num_entities = 2000;
  const data::Dataset dataset = data::GenerateNorthDk(options);
  const std::vector<geo::CandidatePair> pairs =
      geo::QuadFlexBlock(dataset.Points());
  ASSERT_GT(pairs.size(), 1000u);
  const Linker linker = CorpusLinker(dataset);
  const std::vector<LgmXExtractor::EntityText> texts = EntityTexts(dataset);
  // The scalar reference kernels run ~20x slower than the optimized ones,
  // so their leg checks every 8th pair; the adversarial tests below run
  // every pair under both.
  std::vector<geo::CandidatePair> strided;
  for (size_t r = 0; r < pairs.size(); r += 8) strided.push_back(pairs[r]);
  ForEachKernelImpl([&](text::KernelImpl impl) {
    EXPECT_EQ(CountMismatches(
                  linker, dataset, texts,
                  impl == text::KernelImpl::kReference ? strided : pairs,
                  /*check_extract=*/true),
              0u);
  });
}

TEST(LgmEquivTest, AdversarialPairsMatchTheReference) {
  const data::Dataset dataset = AdversarialDataset();
  const std::vector<LgmXExtractor::EntityText> texts = EntityTexts(dataset);
  const std::vector<geo::CandidatePair> pairs = AllPairs(dataset.size());
  for (const Linker& linker : {CorpusLinker(dataset), StopListLinker()}) {
    ForEachKernelImpl([&](text::KernelImpl) {
      EXPECT_EQ(CountMismatches(linker, dataset, texts, pairs,
                                /*check_extract=*/true),
                0u);
    });
  }
}

TEST(LgmEquivTest, UnnormalizedTextStateMatchesTheReference) {
  const std::vector<LgmXExtractor::EntityText> texts = RawTexts();
  data::Dataset dataset;
  for (size_t i = 0; i < texts.size(); ++i) {
    dataset.entities.push_back(Entity(texts[i].name_norm, texts[i].addr_norm,
                                      static_cast<int>(i), 57.0, 9.9));
  }
  const Linker linker = StopListLinker();
  ForEachKernelImpl([&](text::KernelImpl) {
    EXPECT_EQ(CountMismatches(linker, dataset, texts,
                              AllPairs(dataset.size()),
                              /*check_extract=*/false),
              0u);
  });
}

// The public wrappers split per call; they must agree with the frozen
// per-measure code on every measure, including the list structure.
TEST(LgmEquivTest, WrappersMatchTheReference) {
  const std::vector<std::string> strings = {
      "",
      "!!!",
      "cafe",
      "cafe restaurant",
      "cafe amelie vest",
      "restaurant ameli noord",
      "amelie amelie cafe cafe",
      "ab ab ab ac",
      "ab ac ad ae",
      "abc abd abe",
      "abx aby abz",
      "the quite extraordinarily long named establishment of fine dining",
      "café smørrebrød",
      "caf\xff \xfe bar",
  };
  const Linker linker = StopListLinker();
  const LgmSim& sim = linker.name_sim;
  std::vector<text::SimilarityFn> measures;
  ForEachKernelImpl([&](text::KernelImpl) {
    measures.clear();
    for (const text::NamedSimilarity& m : text::SortableSimilarities()) {
      measures.push_back(m.fn);
    }
    measures.push_back(text::DamerauLevenshteinSimilarity);
    for (const std::string& a : strings) {
      for (const std::string& b : strings) {
        for (const text::SimilarityFn fn : measures) {
          const std::string na = text::Normalize(a);
          const std::string nb = text::Normalize(b);
          EXPECT_TRUE(SameBits(sim.Score(a, b, fn),
                               reference::ScoreNormalized(sim, na, nb, fn)))
              << a << " | " << b;
          EXPECT_TRUE(SameBits(sim.ScoreNormalized(a, b, fn),
                               reference::ScoreNormalized(sim, a, b, fn)))
              << a << " | " << b;
          const ListScores got = sim.IndividualScoresNormalized(a, b, fn);
          const ListScores want =
              reference::IndividualScoresNormalized(sim, a, b, fn);
          EXPECT_TRUE(SameBits(got.base, want.base)) << a << " | " << b;
          EXPECT_TRUE(SameBits(got.mismatch, want.mismatch))
              << a << " | " << b;
          EXPECT_TRUE(SameBits(got.frequent, want.frequent))
              << a << " | " << b;
          const TermLists lists = lgm::SplitTermLists(
              a, b, sim.dictionary(), fn, sim.config().match_threshold);
          const TermLists frozen = reference::SplitTermLists(
              a, b, sim.dictionary(), fn, sim.config().match_threshold);
          EXPECT_EQ(lists.base_a, frozen.base_a) << a << " | " << b;
          EXPECT_EQ(lists.base_b, frozen.base_b) << a << " | " << b;
          EXPECT_EQ(lists.mismatch_a, frozen.mismatch_a) << a << " | " << b;
          EXPECT_EQ(lists.mismatch_b, frozen.mismatch_b) << a << " | " << b;
          EXPECT_EQ(lists.frequent_a, frozen.frequent_a) << a << " | " << b;
          EXPECT_EQ(lists.frequent_b, frozen.frequent_b) << a << " | " << b;
        }
      }
    }
  });
}

}  // namespace
}  // namespace skyex
