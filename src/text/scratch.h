#ifndef SKYEX_TEXT_SCRATCH_H_
#define SKYEX_TEXT_SCRATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Per-thread scratch arena for the string-similarity kernels.
//
// The optimized kernels reuse these buffers instead of allocating per call;
// each buffer grows to the high-water mark of its thread and stays there.
//
// Re-entrancy contract: buffers are partitioned by kernel family, and the
// only kernels invoked re-entrantly are Jaro / Jaro-Winkler (from the
// token-alignment measures, the reversed/permuted variants, and the sketch-
// free token kernels). Jaro touches only `jw_*`; every caller of Jaro uses
// buffers outside that group, so one arena per thread suffices. A kernel
// must never call a kernel of its own family while holding views into its
// family's buffers.
//
// LGM-Sim's per-pair term split (lgm::PairSplit) keeps its buffers outside
// this arena: it calls kernels of every family while holding views into
// its token and joined-list buffers, so none of them may live here.

namespace skyex::text {

struct ScratchArena {
  // Jaro match flags (jw_* — reserved for Jaro/Jaro-Winkler only; the
  // flag vectors serve the > 64-character fallback path).
  std::vector<uint8_t> jw_matched_a;
  std::vector<uint8_t> jw_matched_b;

  // Bit-parallel Jaro occurrence masks (strings ≤ 64 chars): mask[c]
  // holds the b-side positions of character c, valid only while
  // stamp[c] == generation — stamp-clearing avoids a 2 KiB memset per
  // call.
  uint64_t jw_char_mask[256] = {};
  uint32_t jw_char_stamp[256] = {};
  uint32_t jw_generation = 0;

  // Edit-distance DP rows (two needed for Levenshtein, three for the
  // optimal-string-alignment Damerau variant).
  std::vector<uint32_t> ed_rows[3];

  // Reversed-string buffers (ReversedJaroWinkler).
  std::string rev_a;
  std::string rev_b;

  // Token permutation state (PermutedJaroWinkler).
  std::vector<std::string_view> perm_tokens;
  std::string perm_joined;

  // Packed n-gram codes (cosine/jaccard/dice bigrams, skip-grams).
  std::vector<uint32_t> grams_a;
  std::vector<uint32_t> grams_b;

  // Token views for the alignment measures (Monge-Elkan, SoftJaccard,
  // Davies-DeSalles).
  std::vector<std::string_view> tok_a;
  std::vector<std::string_view> tok_b;

  // Greedy-alignment candidate pairs + used flags.
  struct PairCandidate {
    double sim;
    uint32_t i;
    uint32_t j;
  };
  std::vector<PairCandidate> align_candidates;
  std::vector<uint8_t> align_used_a;
  std::vector<uint8_t> align_used_b;

  /// The calling thread's arena.
  static ScratchArena& Get();
};

/// Splits `input` on whitespace into views over `input` (no allocation
/// beyond `out` growth). Same token boundaries as Tokenize().
void TokenizeViews(std::string_view input, std::vector<std::string_view>* out);

}  // namespace skyex::text

#endif  // SKYEX_TEXT_SCRATCH_H_
