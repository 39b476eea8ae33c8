#include "text/jaro.h"

#include <algorithm>
#include <string>

#include "text/scratch.h"
#include "text/simd.h"
#include "text/tokenize.h"

namespace skyex::text {

namespace {

// Bit-parallel Jaro match phase for strings of at most 64 characters
// (every normalized name/address in practice). One occurrence bitmask
// per character of b answers "smallest unmatched b-position equal to
// a[i] inside the window" with a masked AND plus ctz, so the common
// dissimilar-pair case — the reference scans the whole window and
// matches nothing — costs one table load per character instead of a
// window walk. Greedy smallest-j semantics are identical to
// reference::JaroSimilarity, so the kernel-equivalence pin holds.
double JaroBitParallel(std::string_view a, std::string_view b,
                       size_t match_window) {
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  ByteMasks& masks = ScratchArena::Get().Masks();
  masks.Load(b);

  uint64_t matched_a = 0;
  uint64_t matched_b = 0;
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const uint64_t occurrences = masks.Get(static_cast<unsigned char>(a[i]));
    if (occurrences == 0) continue;  // character absent from b
    const size_t lo = (i > match_window) ? i - match_window : 0;
    const size_t hi = std::min(len_b, i + match_window + 1);
    const uint64_t below_hi =
        hi >= 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t window = below_hi & ~((uint64_t{1} << lo) - 1);
    const uint64_t cand = occurrences & window & ~matched_b;
    if (cand != 0) {
      matched_b |= cand & (~cand + 1);  // lowest set bit: smallest j
      matched_a |= uint64_t{1} << i;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  uint64_t bb = matched_b;
  for (uint64_t aa = matched_a; aa != 0; aa &= aa - 1) {
    const int i = __builtin_ctzll(aa);
    const int j = __builtin_ctzll(bb);
    bb &= bb - 1;
    transpositions += static_cast<size_t>(a[i] != b[j]);
  }
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

}  // namespace

// Branch-light Jaro. Bit-identical to reference::JaroSimilarity (pinned
// by tests/kernel_equiv_test.cc): both paths pick the same smallest
// unmatched j per i — the bit-parallel path via ctz over the window
// mask, the long-string fallback via the SIMD scan in FindUnmatchedChar
// reporting the lowest set lane — and the final expression is kept
// verbatim. The identical-string fast path is exact: for a == b the
// reference matches every i to j = i (all smaller equal characters are
// already taken, by induction), giving matches == len and zero
// transpositions, so the formula reduces to (1 + 1 + 1) / 3 == 1.0.
double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(len_a, len_b) / 2) - 1;
  if (len_a <= 64 && len_b <= 64) {
    return JaroBitParallel(a, b, match_window);
  }

  ScratchArena& s = ScratchArena::Get();
  s.jw_matched_a.assign(len_a, 0);
  s.jw_matched_b.assign(len_b, 0);
  uint8_t* matched_a = s.jw_matched_a.data();
  uint8_t* matched_b = s.jw_matched_b.data();

  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = (i > match_window) ? i - match_window : 0;
    const size_t hi = std::min(len_b, i + match_window + 1);
    const size_t j = FindUnmatchedChar(b.data(), matched_b, lo, hi, a[i]);
    if (j < hi) {
      matched_a[i] = 1;
      matched_b[j] = 1;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions: matched characters out of order.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (matched_a[i] == 0) continue;
    while (matched_b[j] == 0) ++j;
    transpositions += static_cast<size_t>(a[i] != b[j]);
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  constexpr double kPrefixScale = 0.1;
  constexpr double kBoostThreshold = 0.7;
  const double jaro = JaroSimilarity(a, b);
  if (jaro < kBoostThreshold) return jaro;
  size_t prefix = 0;
  const size_t max_prefix = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * kPrefixScale * (1.0 - jaro);
}

double ReversedJaroWinklerSimilarity(std::string_view a, std::string_view b) {
  ScratchArena& s = ScratchArena::Get();
  s.rev_a.assign(a.rbegin(), a.rend());
  s.rev_b.assign(b.rbegin(), b.rend());
  return JaroWinklerSimilarity(s.rev_a, s.rev_b);
}

double SortedJaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return JaroWinklerSimilarity(SortTokens(a), SortTokens(b));
}

double PermutedJaroWinklerSimilarity(std::string_view a, std::string_view b,
                                     size_t max_tokens) {
  ScratchArena& s = ScratchArena::Get();
  TokenizeViews(a, &s.perm_tokens);
  if (s.perm_tokens.size() <= 1) return JaroWinklerSimilarity(a, b);
  if (s.perm_tokens.size() > max_tokens) {
    return SortedJaroWinklerSimilarity(a, b);
  }
  // string_view ordering is the same lexicographic order as std::string, so
  // the permutation sequence matches the reference token-copy version.
  std::sort(s.perm_tokens.begin(), s.perm_tokens.end());
  double best = 0.0;
  do {
    s.perm_joined.clear();
    for (size_t i = 0; i < s.perm_tokens.size(); ++i) {
      if (i > 0) s.perm_joined.push_back(' ');
      s.perm_joined.append(s.perm_tokens[i]);
    }
    best = std::max(best, JaroWinklerSimilarity(s.perm_joined, b));
  } while (std::next_permutation(s.perm_tokens.begin(), s.perm_tokens.end()));
  return best;
}

}  // namespace skyex::text
