#include "text/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "text/scratch.h"

namespace skyex::text {

namespace {

// Bit-vector edit distance of a pattern of 1..64 bytes against a text of
// any length: Myers' (1999) Levenshtein in Hyyrö's formulation and, with
// kTranspositions, Hyyrö's (2003) optimal-string-alignment extension.
// Bit i of vp / vn says whether D[i+1][j] - D[i][j] is +1 / -1 in the
// current text column j; `dist` follows D[m][j] down the last row. Only
// carries and left shifts move information between bits, and both move
// it upwards, so the bits above the pattern never reach the ones below
// and the all-ones start needs no mask. Returns the same integer as the
// DP below, which the kernel-equivalence tests pin.
template <bool kTranspositions>
size_t BitParallelDistance(std::string_view pattern, std::string_view text) {
  ByteMasks& masks = ScratchArena::Get().Masks();
  masks.Load(pattern);
  const uint64_t last = uint64_t{1} << (pattern.size() - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint64_t prev_d0 = 0;
  uint64_t prev_eq = 0;
  size_t dist = pattern.size();
  for (const char ch : text) {
    const uint64_t eq = masks.Get(static_cast<unsigned char>(ch));
    uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    if constexpr (kTranspositions) {
      // Transposition: where two pattern bytes equal the last two text
      // bytes swapped, the cell can take its value from two rows and two
      // columns back plus one.
      d0 |= ((~prev_d0 & eq) << 1) & prev_eq;
      prev_d0 = d0;
      prev_eq = eq;
    }
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = vp & d0;
    dist += static_cast<size_t>((hp & last) != 0);
    dist -= static_cast<size_t>((hn & last) != 0);
    hp = (hp << 1) | 1;  // row 0 grows by one per text column
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return dist;
}

}  // namespace

// Both distances are symmetric, so `a` becomes the shorter string: the
// pattern of the bit-parallel path whenever it has at most 64 bytes
// (every normalized name and address), else the row string of a
// branch-light DP over per-thread scratch rows. The DP's cell recurrence
// is pure integer arithmetic, so any evaluation order gives the same
// distances as the reference implementation (pinned by
// tests/kernel_equiv_test.cc).
size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  if (a == b) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= 64) return BitParallelDistance<false>(a, b);
  const size_t cols = b.size() + 1;
  ScratchArena& s = ScratchArena::Get();
  if (s.ed_rows[0].size() < cols) s.ed_rows[0].resize(cols);
  if (s.ed_rows[1].size() < cols) s.ed_rows[1].resize(cols);
  uint32_t* prev = s.ed_rows[0].data();
  uint32_t* cur = s.ed_rows[1].data();
  for (size_t j = 0; j < cols; ++j) prev[j] = static_cast<uint32_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    const char ca = a[i - 1];
    cur[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const uint32_t sub = prev[j - 1] + static_cast<uint32_t>(ca != b[j - 1]);
      const uint32_t ins_del = std::min(prev[j], cur[j - 1]) + 1;
      cur[j] = std::min(sub, ins_del);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  if (a == b) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= 64) return BitParallelDistance<true>(a, b);
  // Three-row dynamic program (optimal string alignment).
  const size_t cols = b.size() + 1;
  ScratchArena& s = ScratchArena::Get();
  for (auto& row : s.ed_rows) {
    if (row.size() < cols) row.resize(cols);
  }
  uint32_t* two_back = s.ed_rows[0].data();
  uint32_t* prev = s.ed_rows[1].data();
  uint32_t* cur = s.ed_rows[2].data();
  for (size_t j = 0; j < cols; ++j) prev[j] = static_cast<uint32_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    const char ca = a[i - 1];
    cur[0] = static_cast<uint32_t>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const uint32_t sub = prev[j - 1] + static_cast<uint32_t>(ca != b[j - 1]);
      const uint32_t ins_del = std::min(prev[j], cur[j - 1]) + 1;
      uint32_t best = std::min(sub, ins_del);
      if (i > 1 && j > 1 && ca == b[j - 2] && a[i - 2] == b[j - 1]) {
        best = std::min(best, two_back[j - 2] + 1);
      }
      cur[j] = best;
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

}  // namespace skyex::text
