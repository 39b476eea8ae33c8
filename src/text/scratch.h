#ifndef SKYEX_TEXT_SCRATCH_H_
#define SKYEX_TEXT_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

// Per-thread scratch arena for the string-similarity kernels.
//
// The optimized kernels reuse these buffers instead of allocating per call;
// each buffer grows to the high-water mark of its thread and stays there.
//
// Heap rule: no kernel table is stored inline. The arena is a thread_local,
// and glibc zero-fills a thread's whole static TLS block when the thread
// starts, in every thread of the process (skyex_serve runs a dozen, and
// only the shard workers and pool threads run kernels). Fixed-size tables
// therefore live behind a pointer or in a vector allocated on first use.
//
// Re-entrancy contract: buffers are partitioned by kernel family, and the
// only kernels invoked re-entrantly are Jaro / Jaro-Winkler (from the
// token-alignment measures, the reversed/permuted variants, and the sketch-
// free token kernels). Jaro touches only `jw_*` and the byte masks; every
// caller of Jaro uses buffers outside that group, so one arena per thread
// suffices. A kernel must never call a kernel of its own family while
// holding views into its family's buffers. The byte masks and the gram
// table belong to leaf kernels, which load and read them without calling
// any other kernel.
//
// LGM-Sim's per-pair term split (lgm::PairSplit) keeps its buffers outside
// this arena: it calls kernels of every family while holding views into
// its token and joined-list buffers, so none of them may live here.

namespace skyex::text {

/// Per-byte occurrence masks of one pattern of at most 64 bytes: bit i of
/// Get(c) is set when pattern[i] == c. Load() restamps the bytes of the
/// pattern instead of clearing all 256 entries, so it costs O(|pattern|).
/// Shared by the bit-parallel kernels (Jaro, Levenshtein, OSA
/// Damerau-Levenshtein).
class ByteMasks {
 public:
  /// Requires pattern.size() <= 64.
  void Load(std::string_view pattern);

  uint64_t Get(unsigned char c) const {
    return stamp_[c] == generation_ ? mask_[c] : 0;
  }

 private:
  // mask_[c] is valid only while stamp_[c] == generation_.
  uint64_t mask_[256] = {};
  uint32_t stamp_[256] = {};
  uint32_t generation_ = 0;
};

/// One slot of the gram count table: the packed gram code and how often
/// it occurs in each string, valid only while stamp == the table's
/// generation.
struct GramSlot {
  uint32_t stamp;
  uint32_t code;
  uint32_t count_a;
  uint32_t count_b;
};

struct ScratchArena {
  // Jaro match flags (jw_* — reserved for Jaro/Jaro-Winkler only; the
  // flag vectors serve the > 64-character fallback path).
  std::vector<uint8_t> jw_matched_a;
  std::vector<uint8_t> jw_matched_b;

  // Edit-distance DP rows for strings whose shorter side exceeds 64 bytes
  // (two needed for Levenshtein, three for the optimal-string-alignment
  // Damerau variant).
  std::vector<uint32_t> ed_rows[3];

  // Open-addressing gram count table (cosine/jaccard/dice bigrams,
  // skip-grams), sized per call from the input; a call uses a power-of-two
  // prefix of it.
  std::vector<GramSlot> gram_table;
  uint32_t gram_generation = 0;

  // Reversed-string buffers (ReversedJaroWinkler).
  std::string rev_a;
  std::string rev_b;

  // Token permutation state (PermutedJaroWinkler).
  std::vector<std::string_view> perm_tokens;
  std::string perm_joined;

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

  /// The byte masks of the bit-parallel kernels, allocated on first use.
  ByteMasks& Masks();

  /// The calling thread's arena.
  static ScratchArena& Get();

 private:
  std::unique_ptr<ByteMasks> byte_masks_;
};

}  // namespace skyex::text

#endif  // SKYEX_TEXT_SCRATCH_H_
