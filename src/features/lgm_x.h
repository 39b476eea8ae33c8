#ifndef SKYEX_FEATURES_LGM_X_H_
#define SKYEX_FEATURES_LGM_X_H_

#include <cstddef>
#include <cstdint>
#include <limits>
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

  /// A set of LGM-X columns compiled into the work one row needs. A row
  /// computed under a plan holds width() doubles: column k is schema
  /// column columns[k]. Each textual attribute runs only the kernels its
  /// requested columns read, directly or through a dependency: a group
  /// (ii) or (iii) column of sortable measure s reads group (i)'s raw
  /// score of that measure, groups (iii) and (iv) read the pair's LGM-Sim
  /// split, and group (iv) reads the Damerau-Levenshtein raw score. The
  /// full row is the plan of every column in schema order.
  struct ColumnPlan {
    static constexpr uint32_t kSkip = std::numeric_limits<uint32_t>::max();
    /// What one textual attribute computes. Bit m of `raw` is group (i)'s
    /// measure at registry position m (text::BasicSimilarities); bit s of
    /// `sorted` and `lgm` is group (ii)'s and (iii)'s sortable measure s.
    struct Text {
      uint32_t raw = 0;
      uint32_t sorted = 0;
      uint32_t lgm = 0;
      bool split = false;  // assign the LGM-Sim term split
      bool lists = false;  // group (iv), the three list scores
    };
    std::vector<size_t> columns;  // requested schema columns, row order
    std::vector<uint32_t> slot;   // per schema column: row position/kSkip
    Text text[2];                 // name, address
    bool number = false;          // address-number feature
    bool geo = false;             // spatial feature

    size_t width() const { return columns.size(); }
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

  /// Compiles `columns` (distinct schema indices, in the order the row
  /// should hold them) into a plan. Throws std::out_of_range for an index
  /// outside the schema and std::invalid_argument for a repeated one.
  ColumnPlan PlanColumns(const std::vector<size_t>& columns) const;

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

  /// The plan's columns of that row (out must hold plan.width() doubles);
  /// each is bit-identical to the same column of the full row.
  void RowFromCache(const data::SpatialEntity& a, const EntityText& ta,
                    const data::SpatialEntity& b, const EntityText& tb,
                    const ColumnPlan& plan, double* out) const;

  /// Bulk extraction over candidate pairs, fanned out on the shared
  /// par::ThreadPool. Normalized attribute strings are cached per entity.
  ml::FeatureMatrix Extract(const data::Dataset& dataset,
                            const std::vector<geo::CandidatePair>& pairs) const;

  /// Same, computing only the plan's columns: the matrix has plan.width()
  /// columns, named after the schema columns they hold.
  ml::FeatureMatrix Extract(const data::Dataset& dataset,
                            const std::vector<geo::CandidatePair>& pairs,
                            const ColumnPlan& plan) const;

  /// Same, for the pairs at `rows` (indices into `pairs`) only: writes
  /// the plan's columns of pairs[r] to matrix->Row(r), which must hold
  /// plan.width() doubles, and leaves every other row as it is. Two-pass
  /// training (core/two_pass.h) fills the rows it did not extract in full
  /// this way.
  void ExtractRows(const data::Dataset& dataset,
                   const std::vector<geo::CandidatePair>& pairs,
                   const std::vector<size_t>& rows, const ColumnPlan& plan,
                   ml::FeatureMatrix* matrix) const;

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
  // Computes the planned features of one textual attribute. `slot` holds
  // the output positions of the attribute's 43 schema columns, in schema
  // order, as positions into `out`.
  void TextFeatures(const lgm::LgmSim& sim, const ColumnPlan::Text& plan,
                    const uint32_t* slot, const std::string& a_norm,
                    const std::string& a_sorted, const std::string& b_norm,
                    const std::string& b_sorted, double* out) const;

  // The bulk loop of Extract and ExtractRows: the plan's columns of
  // pairs[r] into matrix->Row(r), for r in `rows`, or for every pair
  // when `rows` is null.
  void FillRows(const data::Dataset& dataset,
                const std::vector<geo::CandidatePair>& pairs,
                const std::vector<size_t>* rows, const ColumnPlan& plan,
                ml::FeatureMatrix* matrix) const;

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
  ColumnPlan full_plan_;
};

}  // namespace skyex::features

#endif  // SKYEX_FEATURES_LGM_X_H_
