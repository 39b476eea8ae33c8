#ifndef SKYEX_FEATURES_SKETCH_H_
#define SKYEX_FEATURES_SKETCH_H_

#include <array>
#include <cstdint>
#include <string_view>

// Per-entity set-sketch signatures for the stage-1 extraction pre-filter.
//
// A TokenSketch is a bottom-k sketch (k = kSketchRegisters) of the 64-bit
// hashes of the character bigrams of a normalized string: the k smallest
// distinct hash values, kept during construction with the tournament
// max-tree idiom of the setsketch/HLL snippet (a binary tree above the
// registers tracks the current maximum, so a non-improving hash is rejected
// by one root comparison and an improving one walks a log₂(k) path).
//
// Two sketches estimate the Jaccard resemblance of the underlying bigram
// sets: among the k smallest hashes of the union, the fraction present in
// both sketches. For strings with fewer than k distinct bigrams (most names
// and addresses) the sketch holds the whole set and the estimate is exact.
//
// The serving pre-filter (core/incremental.cc) drops a candidate pair when
// EstimatePair — the best estimate over the attributes comparable on both
// sides — falls below --prefilter-threshold; `skyex prefilter-eval` sweeps
// that threshold over the blocked pairs of a dataset. The pre-filter is
// serving-only: batch extraction scores every blocked pair. Threshold 0
// never drops anything, which keeps serving bit-identical to the
// unfiltered path (test-pinned).

namespace skyex::features {

inline constexpr size_t kSketchRegisters = 32;

struct TokenSketch {
  // The k smallest distinct bigram hashes, ascending; empty slots (when the
  // string has fewer distinct bigrams) hold kEmptySlot at the tail.
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  std::array<uint64_t, kSketchRegisters> values;
  uint32_t count = 0;  // populated registers

  bool empty() const { return count == 0; }
};

/// Sketch of the character bigrams of a normalized string (token-crossing
/// bigrams included: spaces participate, so word boundaries count).
TokenSketch BuildTokenSketch(std::string_view normalized);

/// Bottom-k Jaccard estimate of the bigram resemblance of the two sketched
/// strings, in [0, 1]. Exact when both strings have < k distinct bigrams.
/// Returns 0 when exactly one side is empty, 1 when both are.
double EstimateResemblance(const TokenSketch& a, const TokenSketch& b);

/// Name + address sketches of an entity, built from the same normalized
/// strings the extractor uses (EntityText::name_norm / addr_norm).
struct EntitySketch {
  TokenSketch name;
  TokenSketch addr;
};

/// The pre-filter's pair score: the MAXIMUM resemblance estimate over the
/// attributes present on both sides (name and/or address), so a pair is
/// only droppable when every shared attribute looks dissimilar — a true
/// match with a corrupted name but a matching address survives. With no
/// comparable attribute the score is 1.0 (never drop a pair the sketches
/// know nothing about — keeps the filter recall-safe for missing text).
double EstimatePair(const EntitySketch& a, const EntitySketch& b);

}  // namespace skyex::features

#endif  // SKYEX_FEATURES_SKETCH_H_
