#ifndef SKYEX_CORE_INCREMENTAL_H_
#define SKYEX_CORE_INCREMENTAL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/skyex_t.h"
#include "data/spatial_entity.h"
#include "features/lgm_x.h"
#include "features/sketch.h"
#include "geo/radius_grid.h"
#include "obs/flight.h"
#include "quality/audit_log.h"

namespace skyex::core {

/// Incremental linkage — the scalability direction the paper names as
/// future work. Instead of re-running the whole pipeline when a record
/// arrives, the linker keeps the dataset and a trained model, finds the
/// new record's spatial candidates, scores them with LGM-X, and accepts
/// the ones whose group-sum key clears a boundary calibrated once at
/// construction: per priority group, the `calibration_percentile`
/// quantile of the keys of the calibration pairs the model labels
/// positive (the serving bootstrap labels the store's blocked pairs).
/// Candidates are scored on the LGM-X columns the model's preference
/// reads (core::ProjectModel), not on all 88; a full row is extracted
/// only for a candidate a quality::MatchCapture keeps.
struct IncrementalLinkerOptions {
  /// Candidate radius around the new record. It also sets the cell edge
  /// of the linker's candidate index (geo::RadiusGrid).
  double radius_m = 200.0;
  /// Quantile, per priority group, of the accepted calibration pairs'
  /// group-sum keys used as the acceptance boundary: 0.1 links
  /// generously (recall-leaning), 0.5 links conservatively
  /// (precision-leaning, for noisy feeds).
  double calibration_percentile = 0.1;
  /// Without coordinates, compare against every record — refuse when
  /// the dataset exceeds this (0 = no limit).
  size_t max_cartesian = 200000;
  /// Stage-1 sketch pre-filter: candidates whose sketch token-overlap
  /// estimate (features::EstimatePair) falls below this are dropped
  /// before feature extraction. 0 disables the filter entirely — the
  /// match set is then bit-identical to scoring every candidate
  /// (test-pinned). The serving binary defaults to 0.1; the library
  /// default stays 0 so training/calibration behavior never changes.
  double prefilter_threshold = 0.0;
  /// Capacity of the per-linker LRU of per-entity normalized text +
  /// sketches (the extractor's EntityText plus features::EntitySketch).
  /// 0 computes per call without storing anything. Entries are keyed by
  /// dataset index, which is stable because the dataset is append-only.
  size_t text_cache_capacity = 4096;
};

/// One accepted link, with the score the shard router ranks by: the
/// pair's prioritized group sum (the first component of the compiled
/// preference key — larger is a stronger match).
struct ScoredMatch {
  size_t index = 0;   // into dataset()
  double score = 0.0;
};

/// Thread-safety contract: IncrementalLinker is NOT thread-safe. Its
/// calls must be serialized behind a single mutex or owning thread, with
/// one exception: only Append (and AddRecord) writes what dataset() and
/// grid() return, so a reader that excludes Append alone may read those
/// concurrently with MatchRecord (serve::LinkService takes a records lock
/// around Append). tests/serve_test.cc asserts that concurrent batched
/// access through the server stays consistent (no torn reads, record
/// count equals the requests accepted).
class IncrementalLinker {
 public:
  using Options = IncrementalLinkerOptions;

  /// `model` must come from SkyExT::Train on features produced by an
  /// extractor equivalent to `extractor`. `accepted_rows` are the rows of
  /// `matrix` the model labels positive; their group-sum keys calibrate
  /// the acceptance boundary. `matrix` may hold every LGM-X column or
  /// only those the preference reads: each preference term finds its
  /// column by name (std::invalid_argument when one is missing, or when
  /// the preference reads a feature outside the extractor's schema).
  IncrementalLinker(data::Dataset dataset,
                    features::LgmXExtractor extractor, SkyExTModel model,
                    const ml::FeatureMatrix& matrix,
                    const std::vector<size_t>& accepted_rows,
                    Options options = {});

  /// Adds the record, returns indices of existing records it links to.
  /// `stats` (optional) is added to as by MatchRecord. Equivalent to
  /// MatchRecord (indices in ascending order, scores dropped) followed
  /// by Append.
  std::vector<size_t> AddRecord(const data::SpatialEntity& record,
                                obs::LinkStats* stats = nullptr);

  /// Read-only half of AddRecord: finds and scores the records `record`
  /// links to, without mutating the dataset. Results come out in
  /// ascending index order. The shard router matches on every
  /// intersecting shard but persists on the owner only, so the two
  /// halves are separately callable.
  ///
  /// `stats` (optional) is added to, never reset, so one record can sum
  /// a batch: `extract_us` gets the candidate lookup plus the prefilter,
  /// `prefilter_us` the text-state lookup + sketch prefilter alone,
  /// `rank_us` the LGM-X scoring + skyline-key acceptance (and the full
  /// rows a capture keeps), plus the candidate, prefilter-drop and
  /// text-cache counts.
  ///
  /// `capture` (optional) receives what it asks for (see
  /// quality::MatchCapture). An audit capture gets the full decision
  /// trail: the calibrated threshold key plus one entry per candidate
  /// (prefilter verdict, and for survivors the full feature row, score
  /// and accept/reject), dropped candidates first, then the scored ones
  /// in candidate order. A capture with drift_every > 0 numbers the
  /// scored rows on this linker's count and marks the ones drift
  /// observes; without audit, only those become decisions. Every
  /// candidate is scored on the same plan row whatever is captured, and
  /// kept rows are extracted in full besides, so the match set and every
  /// score are bit-identical to the uncaptured call, which is what lets
  /// `skyex_audit replay` reproduce serving decisions exactly.
  std::vector<ScoredMatch> MatchRecord(
      const data::SpatialEntity& record, obs::LinkStats* stats = nullptr,
      quality::MatchCapture* capture = nullptr) const;

  /// Write half of AddRecord: appends `record` to the dataset.
  void Append(const data::SpatialEntity& record);

  const data::Dataset& dataset() const { return dataset_; }
  const geo::RadiusGrid& grid() const { return grid_; }

 private:
  /// One cached per-entity text state: the extractor's normalized
  /// strings plus the stage-1 sketch, computed together because every
  /// consumer (pre-filter, then RowFromCache) needs both.
  struct TextEntry {
    features::LgmXExtractor::EntityText text;
    features::EntitySketch sketch;
  };

  /// True when the plan row (plan_.width() doubles) clears the
  /// calibrated boundary; `score` (when non-null) receives the row's
  /// prioritized group sum regardless. `key` is caller-owned scratch of
  /// compiled_.KeySize() doubles, so the per-pair check does not
  /// allocate.
  bool Accept(const double* row, double* key, double* score = nullptr) const;

  static TextEntry ComputeTextEntry(const data::SpatialEntity& e);

  /// Get-or-compute of dataset_[index]'s text entry through the LRU
  /// (capacity 0 computes without storing). Returned entries are
  /// shared_ptrs so an eviction mid-call never invalidates a caller's
  /// reference. NOT thread-safe — covered by the class's serialization
  /// contract (MatchRecord touches the cache only from the calling
  /// thread, before fanning scoring out to the pool).
  std::shared_ptr<const TextEntry> GetTextEntry(size_t index, size_t* hits,
                                                size_t* misses) const;

  data::Dataset dataset_;
  features::LgmXExtractor extractor_;
  SkyExTModel model_;
  Options options_;
  /// The columns the preference reads, in ascending schema order; every
  /// candidate's score row is computed under it.
  features::LgmXExtractor::ColumnPlan plan_;
  /// The preference, each term reading its column's plan_ slot.
  skyline::CompiledPreference compiled_;
  /// Per priority group, the calibration_percentile quantile of the
  /// accepted calibration rows' group-sum keys: a new pair is linked
  /// when its key is lexicographically ≥ this threshold.
  std::vector<double> threshold_key_;
  bool calibrated_ = false;

  /// Candidate index over dataset_ locations: grid id i is dataset
  /// index i (filled at construction, extended by Append).
  geo::RadiusGrid grid_;

  /// LRU of per-entity text state, keyed by dataset index (stable:
  /// Append only ever adds records). `mutable` because MatchRecord is
  /// logically const yet warms the cache; safe under the class's
  /// single-caller contract (see above — all access is serialized).
  /// List order is recency (front = most recent).
  mutable std::list<std::pair<size_t, std::shared_ptr<const TextEntry>>>
      text_lru_;
  mutable std::unordered_map<
      size_t,
      std::list<std::pair<size_t, std::shared_ptr<const TextEntry>>>::iterator>
      text_lru_index_;

  /// Scored rows numbered so far by captures with drift_every > 0: row k
  /// of such an attempt is row drift_rows_ + k. `mutable` and
  /// unsynchronized like the LRU, under the same contract.
  mutable uint64_t drift_rows_ = 0;
};

}  // namespace skyex::core

#endif  // SKYEX_CORE_INCREMENTAL_H_
