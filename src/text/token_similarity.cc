#include "text/token_similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "text/jaro.h"
#include "text/scratch.h"
#include "text/tokenize.h"

namespace skyex::text {

namespace {

// ---------------------------------------------------------------------------
// Gram counts in one open-addressing table.
//
// The gram measures (cosine / jaccard / dice bigrams, skip-grams) are
// functions of six integers: |A|, |B|, Σ min(ca, cb), Σ ca·cb, Σ ca² and
// Σ cb² over the gram multisets. One pass over each string's grams in a
// table keyed by the packed gram code gives all six exactly, and each
// measure applies the reference's final expression to them. Every
// intermediate the reference accumulates in a double is an integer below
// 2^53, so it holds the same integer and the scores are bit-identical.
// 2-character grams get a disjoint code namespace (bit 17) from the
// single-character whole-string gram a 1-byte input yields, so no
// collision is possible for any byte values.
// ---------------------------------------------------------------------------

constexpr uint32_t kTwoCharGram = 1u << 17;

inline uint32_t PackGram2(char c0, char c1) {
  return kTwoCharGram |
         (static_cast<uint32_t>(static_cast<uint8_t>(c0)) << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(c1));
}

// Calls fn(code) for every gram of `input`, the multiset SkipGrams(input,
// max_skip) extracts (max_skip 0: CharNgrams(input, 2)): the pairs
// (input[i], input[j]) with 1 <= j - i <= max_skip + 1, or the whole string
// as a one-byte gram when it has a single character.
template <typename Fn>
inline void ForEachGram(std::string_view input, size_t max_skip, Fn&& fn) {
  if (input.size() == 1) {
    fn(static_cast<uint32_t>(static_cast<uint8_t>(input[0])));
    return;
  }
  for (size_t i = 0; i + 1 < input.size(); ++i) {
    const size_t end = std::min(input.size(), i + max_skip + 2);
    for (size_t j = i + 1; j < end; ++j) fn(PackGram2(input[i], input[j]));
  }
}

struct GramCounts {
  uint64_t size_a = 0;  // |A|
  uint64_t size_b = 0;  // |B|
  uint64_t inter = 0;   // Σ min(ca, cb)
  uint64_t dot = 0;     // Σ ca·cb
  uint64_t sq_a = 0;    // Σ ca²
  uint64_t sq_b = 0;    // Σ cb²
};

// Counts the grams of two non-empty strings. The table is a power of two
// at least twice the gram count bound (max_skip + 1) * (|a| + |b|), so
// linear probing always finds a free slot; slots of other calls are told
// apart by their stamp, so nothing is cleared between calls.
GramCounts CountGrams(std::string_view a, std::string_view b,
                      size_t max_skip) {
  ScratchArena& s = ScratchArena::Get();
  const size_t bound = (max_skip + 1) * (a.size() + b.size());
  int bits = 4;
  while ((size_t{1} << bits) < 2 * bound) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  if (s.gram_table.size() <= mask) s.gram_table.resize(mask + 1);
  if (++s.gram_generation == 0) {  // stamp wrap: invalidate the table once
    for (GramSlot& slot : s.gram_table) slot.stamp = 0;
    s.gram_generation = 1;
  }
  const uint32_t gen = s.gram_generation;
  GramSlot* table = s.gram_table.data();
  const auto find = [&](uint32_t code) -> GramSlot& {
    size_t i = (code * uint64_t{0x9E3779B97F4A7C15}) >> (64 - bits);
    while (table[i].stamp == gen && table[i].code != code) {
      i = (i + 1) & mask;
    }
    if (table[i].stamp != gen) table[i] = {gen, code, 0, 0};
    return table[i];
  };

  GramCounts c;
  ForEachGram(a, max_skip, [&](uint32_t code) {
    GramSlot& slot = find(code);
    c.sq_a += 2 * uint64_t{slot.count_a} + 1;  // (n + 1)² - n²
    ++slot.count_a;
    ++c.size_a;
  });
  ForEachGram(b, max_skip, [&](uint32_t code) {
    GramSlot& slot = find(code);
    c.inter += slot.count_b < slot.count_a;
    c.dot += slot.count_a;
    c.sq_b += 2 * uint64_t{slot.count_b} + 1;
    ++slot.count_b;
    ++c.size_b;
  });
  return c;
}

// Multiset Jaccard over the grams; a non-empty string has at least one
// gram, so the union is never empty.
double GramJaccard(std::string_view a, std::string_view b, size_t max_skip) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const GramCounts c = CountGrams(a, b, max_skip);
  return static_cast<double>(c.inter) /
         static_cast<double>(c.size_a + c.size_b - c.inter);
}

}  // namespace

double CosineNgramSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const GramCounts c = CountGrams(a, b, 0);
  // Rounding can push identical vectors epsilon above 1.
  return std::min(1.0, static_cast<double>(c.dot) /
                           (std::sqrt(static_cast<double>(c.sq_a)) *
                            std::sqrt(static_cast<double>(c.sq_b))));
}

double JaccardNgramSimilarity(std::string_view a, std::string_view b) {
  return GramJaccard(a, b, 0);
}

double DiceBigramSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const GramCounts c = CountGrams(a, b, 0);
  return 2.0 * static_cast<double>(c.inter) /
         static_cast<double>(c.size_a + c.size_b);
}

double SkipgramSimilarity(std::string_view a, std::string_view b) {
  return GramJaccard(a, b, 2);
}

namespace {

double MongeElkanDirected(const std::vector<std::string_view>& from,
                          const std::vector<std::string_view>& to) {
  if (from.empty()) return to.empty() ? 1.0 : 0.0;
  if (to.empty()) return 0.0;
  double total = 0.0;
  for (const std::string_view t1 : from) {
    double best = 0.0;
    for (const std::string_view t2 : to) {
      best = std::max(best, JaroWinklerSimilarity(t1, t2));
    }
    total += best;
  }
  return total / static_cast<double>(from.size());
}

}  // namespace

double MongeElkanSimilarity(std::string_view a, std::string_view b) {
  ScratchArena& s = ScratchArena::Get();
  TokenizeViews(a, &s.tok_a);
  TokenizeViews(b, &s.tok_b);
  return 0.5 * (MongeElkanDirected(s.tok_a, s.tok_b) +
                MongeElkanDirected(s.tok_b, s.tok_a));
}

double SoftJaccardSimilarity(std::string_view a, std::string_view b,
                             double threshold) {
  ScratchArena& s = ScratchArena::Get();
  TokenizeViews(a, &s.tok_a);
  TokenizeViews(b, &s.tok_b);
  const std::vector<std::string_view>& ta = s.tok_a;
  const std::vector<std::string_view>& tb = s.tok_b;
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;

  // Greedy best-first matching of token pairs above the threshold. The
  // candidate order, comparator, and accumulation order match the reference
  // exactly, so the greedy alignment (and its float sums) are identical.
  s.align_candidates.clear();
  for (size_t i = 0; i < ta.size(); ++i) {
    for (size_t j = 0; j < tb.size(); ++j) {
      const double sim = JaroWinklerSimilarity(ta[i], tb[j]);
      if (sim >= threshold) {
        s.align_candidates.push_back(
            {sim, static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
      }
    }
  }
  std::sort(s.align_candidates.begin(), s.align_candidates.end(),
            [](const ScratchArena::PairCandidate& x,
               const ScratchArena::PairCandidate& y) { return x.sim > y.sim; });
  s.align_used_a.assign(ta.size(), 0);
  s.align_used_b.assign(tb.size(), 0);
  double matched_weight = 0.0;
  size_t matched = 0;
  for (const ScratchArena::PairCandidate& c : s.align_candidates) {
    if (s.align_used_a[c.i] != 0 || s.align_used_b[c.j] != 0) continue;
    s.align_used_a[c.i] = 1;
    s.align_used_b[c.j] = 1;
    matched_weight += c.sim;
    ++matched;
  }
  const double denom =
      static_cast<double>(ta.size() + tb.size() - matched);
  return denom == 0.0 ? 1.0 : matched_weight / denom;
}

namespace {

// Token similarity with abbreviation handling: a single-letter token
// matches the initial of a longer token perfectly.
double DaviesTokenSim(std::string_view t1, std::string_view t2) {
  if (t1.size() == 1 && !t2.empty() && t1[0] == t2[0]) return 1.0;
  if (t2.size() == 1 && !t1.empty() && t2[0] == t1[0]) return 1.0;
  return JaroWinklerSimilarity(t1, t2);
}

}  // namespace

double DaviesDeSallesSimilarity(std::string_view a, std::string_view b) {
  ScratchArena& s = ScratchArena::Get();
  TokenizeViews(a, &s.tok_a);
  TokenizeViews(b, &s.tok_b);
  const std::vector<std::string_view>& ta = s.tok_a;
  const std::vector<std::string_view>& tb = s.tok_b;
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;

  s.align_candidates.clear();
  s.align_candidates.reserve(ta.size() * tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    for (size_t j = 0; j < tb.size(); ++j) {
      s.align_candidates.push_back({DaviesTokenSim(ta[i], tb[j]),
                                    static_cast<uint32_t>(i),
                                    static_cast<uint32_t>(j)});
    }
  }
  std::sort(s.align_candidates.begin(), s.align_candidates.end(),
            [](const ScratchArena::PairCandidate& x,
               const ScratchArena::PairCandidate& y) { return x.sim > y.sim; });

  // Greedy alignment; unmatched tokens contribute similarity 0 with their
  // own length as weight.
  s.align_used_a.assign(ta.size(), 0);
  s.align_used_b.assign(tb.size(), 0);
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const ScratchArena::PairCandidate& c : s.align_candidates) {
    if (s.align_used_a[c.i] != 0 || s.align_used_b[c.j] != 0) continue;
    s.align_used_a[c.i] = 1;
    s.align_used_b[c.j] = 1;
    const double w =
        static_cast<double>(ta[c.i].size() + tb[c.j].size()) / 2.0;
    weighted_sum += c.sim * w;
    weight_total += w;
  }
  for (size_t i = 0; i < ta.size(); ++i) {
    if (s.align_used_a[i] == 0) {
      weight_total += static_cast<double>(ta[i].size());
    }
  }
  for (size_t j = 0; j < tb.size(); ++j) {
    if (s.align_used_b[j] == 0) {
      weight_total += static_cast<double>(tb[j].size());
    }
  }
  return weight_total == 0.0 ? 1.0 : weighted_sum / weight_total;
}

}  // namespace skyex::text
