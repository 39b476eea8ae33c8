#ifndef SKYEX_FEATURES_LGM_X_H_
#define SKYEX_FEATURES_LGM_X_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/pair_store.h"
#include "data/spatial_entity.h"
#include "lgm/lgm_sim.h"
#include "ml/dataset_view.h"

namespace skyex::features {

/// Options of the LGM-X extractor.
struct LgmXOptions {
  /// Distances at/above this cap score 0 on the spatial feature. The
  /// default matches the QuadFlex blocking ceiling, so the feature keeps
  /// resolution inside the blocked-pair distance range instead of
  /// saturating near 1.
  double max_distance_m = 300.0;
  /// Address-number deltas at/above this cap score 0.
  int max_number_delta = 50;
  /// Cap on this extractor's fan-out over the shared thread pool during
  /// bulk extraction (0 = use the whole pool). Does not grow the pool.
  size_t num_threads = 0;
};

/// The LGM-X feature extractor (Section 4.2.2 of the paper): 88
/// similarity features per pair of spatial entities — see
/// LgmXFeatureNames() for the exact schema. A missing attribute on either
/// side yields 0 for all of its features, as specified by the paper.
class LgmXExtractor {
 public:
  /// Per-entity normalized text state: the extractor's unit of reuse. The
  /// serving path caches these (core/incremental.cc keeps an LRU) so repeat
  /// entities skip normalization entirely.
  struct EntityText {
    std::string name_norm;
    std::string name_sorted;
    std::string addr_norm;
    std::string addr_sorted;
  };

  /// `name_sim` / `addr_sim` carry the frequent-term dictionaries and
  /// LGM-Sim parameters for the two textual attributes.
  LgmXExtractor(lgm::LgmSim name_sim, lgm::LgmSim addr_sim,
                LgmXOptions options = {});

  /// Builds an extractor whose frequent-term dictionaries are gathered
  /// from the names and addresses of `dataset` (how the paper builds the
  /// LGM-Sim term lists from the training corpus).
  static LgmXExtractor FromCorpus(const data::Dataset& dataset,
                                  LgmXOptions options = {},
                                  lgm::LgmSimConfig config = {});

  const std::vector<std::string>& feature_names() const { return names_; }
  size_t feature_count() const { return names_.size(); }

  /// Normalizes one entity's textual attributes (name/address, plus their
  /// token-sorted forms).
  static EntityText ComputeEntityText(const data::SpatialEntity& e);

  /// Computes one feature row (out must hold feature_count() doubles).
  void ExtractRow(const data::SpatialEntity& a, const data::SpatialEntity& b,
                  double* out) const;

  /// Same row, from pre-normalized text state (the serving hot path).
  void RowFromCache(const data::SpatialEntity& a, const EntityText& ta,
                    const data::SpatialEntity& b, const EntityText& tb,
                    double* out) const;

  /// Bulk extraction over candidate pairs, fanned out on the shared
  /// par::ThreadPool. Normalized attribute strings are cached per entity.
  ml::FeatureMatrix Extract(const data::Dataset& dataset,
                            const std::vector<geo::CandidatePair>& pairs) const;

  /// Stage-1 sketch pre-filter for the batch path: returns the pairs whose
  /// sketch estimate (features::EstimatePair over per-entity bigram
  /// sketches) reaches `threshold`, preserving order. `threshold <= 0`
  /// returns the input unchanged — the bit-identity guarantee of
  /// --prefilter-threshold=0. `dropped`, when non-null, receives the number
  /// of discarded pairs. Adds to the `extract/prefilter_dropped` counter.
  std::vector<geo::CandidatePair> PrefilterPairs(
      const data::Dataset& dataset,
      const std::vector<geo::CandidatePair>& pairs, double threshold,
      size_t* dropped = nullptr) const;

 private:
  // Computes the features of one textual attribute into out[0..42].
  void TextFeatures(const lgm::LgmSim& sim, const std::string& a_norm,
                    const std::string& a_sorted, const std::string& b_norm,
                    const std::string& b_sorted, double* out) const;

  lgm::LgmSim name_sim_;
  lgm::LgmSim addr_sim_;
  LgmXOptions options_;
  std::vector<std::string> names_;
  // Registry-position maps resolved once at construction: groups (ii) and
  // (iii) reuse group (i) raw scores via sortable_to_basic_, group (iv)
  // the Damerau-Levenshtein one, and the pre-sorted measure
  // ("jaro_winkler_sorted") is computed from the cached sorted strings via
  // the plain Jaro-Winkler entry.
  std::vector<size_t> sortable_to_basic_;
  size_t sorted_jw_basic_index_;
  size_t jw_basic_index_;
  size_t dl_basic_index_;
};

}  // namespace skyex::features

#endif  // SKYEX_FEATURES_LGM_X_H_
