#include "text/edit_distance.h"

#include <algorithm>
#include <cstdint>

#include "text/scratch.h"

namespace skyex::text {

// Branch-light two-row DP over per-thread scratch rows. The cell recurrence
// is pure integer arithmetic, so any evaluation order gives the same
// distances as the reference implementation (pinned bit-identical by
// tests/kernel_equiv_test.cc).
size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  if (a == b) return 0;
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
