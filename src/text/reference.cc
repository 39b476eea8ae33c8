#include "text/reference.h"

#include <algorithm>
#include <string>
#include <vector>

#include "text/ngram.h"
#include "text/tokenize.h"

// Verbatim copies of the pre-optimization kernels. See reference.h for why
// these must stay exactly as they are.

namespace skyex::text::reference {

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(len_a, len_b) / 2) - 1;

  std::vector<bool> matched_a(len_a, false);
  std::vector<bool> matched_b(len_b, false);
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = (i > match_window) ? i - match_window : 0;
    const size_t hi = std::min(len_b, i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = true;
        matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions: matched characters out of order.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale, double boost_threshold) {
  const double jaro = JaroSimilarity(a, b);
  if (jaro < boost_threshold) return jaro;
  size_t prefix = 0;
  const size_t max_prefix = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * prefix_scale * (1.0 - jaro);
}

double ReversedJaroWinklerSimilarity(std::string_view a, std::string_view b) {
  std::string ra(a.rbegin(), a.rend());
  std::string rb(b.rbegin(), b.rend());
  return JaroWinklerSimilarity(ra, rb);
}

double SortedJaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return JaroWinklerSimilarity(SortTokens(a), SortTokens(b));
}

double PermutedJaroWinklerSimilarity(std::string_view a, std::string_view b,
                                     size_t max_tokens) {
  std::vector<std::string> tokens = Tokenize(a);
  if (tokens.size() <= 1) return JaroWinklerSimilarity(a, b);
  if (tokens.size() > max_tokens) return SortedJaroWinklerSimilarity(a, b);
  std::sort(tokens.begin(), tokens.end());
  double best = 0.0;
  do {
    best = std::max(best, JaroWinklerSimilarity(JoinTokens(tokens), b));
  } while (std::next_permutation(tokens.begin(), tokens.end()));
  return best;
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // Two-row dynamic program.
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // Three-row dynamic program (optimal string alignment).
  const size_t cols = b.size() + 1;
  std::vector<size_t> two_back(cols);
  std::vector<size_t> prev(cols);
  std::vector<size_t> cur(cols);
  for (size_t j = 0; j < cols; ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], two_back[j - 2] + 1);
      }
    }
    std::swap(two_back, prev);
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

namespace {

double NormalizedSimilarity(size_t distance, size_t len_a, size_t len_b) {
  const size_t longest = std::max(len_a, len_b);
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
}

}  // namespace

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  return NormalizedSimilarity(LevenshteinDistance(a, b), a.size(), b.size());
}

double DamerauLevenshteinSimilarity(std::string_view a, std::string_view b) {
  return NormalizedSimilarity(DamerauLevenshteinDistance(a, b), a.size(),
                              b.size());
}

double CosineNgramSimilarity(std::string_view a, std::string_view b,
                             size_t n) {
  return MultisetCosine(CharNgrams(a, n), CharNgrams(b, n));
}

double JaccardNgramSimilarity(std::string_view a, std::string_view b,
                              size_t n) {
  return MultisetJaccard(CharNgrams(a, n), CharNgrams(b, n));
}

double DiceBigramSimilarity(std::string_view a, std::string_view b) {
  return MultisetDice(CharNgrams(a, 2), CharNgrams(b, 2));
}

double SkipgramSimilarity(std::string_view a, std::string_view b) {
  return MultisetJaccard(SkipGrams(a, 2), SkipGrams(b, 2));
}

namespace {

double MongeElkanDirected(const std::vector<std::string>& from,
                          const std::vector<std::string>& to) {
  if (from.empty()) return to.empty() ? 1.0 : 0.0;
  if (to.empty()) return 0.0;
  double total = 0.0;
  for (const std::string& t1 : from) {
    double best = 0.0;
    for (const std::string& t2 : to) {
      best = std::max(best, JaroWinklerSimilarity(t1, t2));
    }
    total += best;
  }
  return total / static_cast<double>(from.size());
}

}  // namespace

double MongeElkanSimilarity(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = Tokenize(a);
  const std::vector<std::string> tb = Tokenize(b);
  return 0.5 * (MongeElkanDirected(ta, tb) + MongeElkanDirected(tb, ta));
}

double SoftJaccardSimilarity(std::string_view a, std::string_view b,
                             double threshold) {
  const std::vector<std::string> ta = Tokenize(a);
  const std::vector<std::string> tb = Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;

  // Greedy best-first matching of token pairs above the threshold.
  struct Candidate {
    double sim;
    size_t i;
    size_t j;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < ta.size(); ++i) {
    for (size_t j = 0; j < tb.size(); ++j) {
      const double sim = JaroWinklerSimilarity(ta[i], tb[j]);
      if (sim >= threshold) candidates.push_back({sim, i, j});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.sim > y.sim;
            });
  std::vector<bool> used_a(ta.size(), false);
  std::vector<bool> used_b(tb.size(), false);
  double matched_weight = 0.0;
  size_t matched = 0;
  for (const Candidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = true;
    used_b[c.j] = true;
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
double DaviesTokenSim(const std::string& t1, const std::string& t2) {
  if (t1.size() == 1 && !t2.empty() && t1[0] == t2[0]) return 1.0;
  if (t2.size() == 1 && !t1.empty() && t2[0] == t1[0]) return 1.0;
  return JaroWinklerSimilarity(t1, t2);
}

}  // namespace

double DaviesDeSallesSimilarity(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = Tokenize(a);
  const std::vector<std::string> tb = Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;

  struct Candidate {
    double sim;
    size_t i;
    size_t j;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(ta.size() * tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    for (size_t j = 0; j < tb.size(); ++j) {
      candidates.push_back({DaviesTokenSim(ta[i], tb[j]), i, j});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.sim > y.sim;
            });

  // Greedy alignment; unmatched tokens contribute similarity 0 with their
  // own length as weight.
  std::vector<bool> used_a(ta.size(), false);
  std::vector<bool> used_b(tb.size(), false);
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const Candidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = true;
    used_b[c.j] = true;
    const double w =
        static_cast<double>(ta[c.i].size() + tb[c.j].size()) / 2.0;
    weighted_sum += c.sim * w;
    weight_total += w;
  }
  for (size_t i = 0; i < ta.size(); ++i) {
    if (!used_a[i]) weight_total += static_cast<double>(ta[i].size());
  }
  for (size_t j = 0; j < tb.size(); ++j) {
    if (!used_b[j]) weight_total += static_cast<double>(tb[j].size());
  }
  return weight_total == 0.0 ? 1.0 : weighted_sum / weight_total;
}

}  // namespace skyex::text::reference
