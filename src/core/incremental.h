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
/// the ones whose feature vectors clear the model's decision region
/// (learned once from the training data as the minimal accepted
/// group-sum key).
struct IncrementalLinkerOptions {
  /// Candidate radius around the new record. It also sets the cell edge
  /// of the linker's candidate index (geo::RadiusGrid).
  double radius_m = 200.0;
  /// Quantile of the accepted training pairs' group-sum keys used as the
  /// acceptance boundary: 0.1 links generously (recall-leaning), 0.5
  /// links conservatively (precision-leaning, for noisy feeds).
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

/// Thread-safety contract: IncrementalLinker is NOT thread-safe.
/// AddRecord mutates the dataset (it appends the new record), so
/// concurrent callers must serialize every AddRecord call — and any
/// dataset() read that can race with one — behind a single mutex or a
/// single owning thread. The serving layer (serve::LinkService) funnels
/// all access through one mutex and the server's single linker thread;
/// tests/serve_test.cc asserts that concurrent batched access through
/// the server stays consistent (no torn reads, record count equals the
/// requests accepted).
class IncrementalLinker {
 public:
  using Options = IncrementalLinkerOptions;

  /// `model` must come from SkyExT::Train on features produced by an
  /// extractor equivalent to `extractor`; `matrix`/`rows` are the
  /// training features used to calibrate the decision region.
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
  /// `rank_us` the LGM-X scoring + skyline-key acceptance, plus the
  /// candidate, prefilter-drop and text-cache counts.
  ///
  /// `capture` (optional) receives the full decision trail for the
  /// audit log: the calibrated threshold key plus one entry per
  /// candidate (prefilter verdict, and for survivors the feature row,
  /// score and accept/reject), dropped candidates first, then the scored
  /// ones in candidate order. Capturing scores on the same path as the
  /// uncaptured call, so the match set and every score are bit-identical
  /// to it (scoring is per-pair deterministic), which is what lets
  /// `skyex_audit replay` reproduce serving decisions exactly.
  std::vector<ScoredMatch> MatchRecord(
      const data::SpatialEntity& record, obs::LinkStats* stats = nullptr,
      quality::MatchCapture* capture = nullptr) const;

  /// Write half of AddRecord: appends `record` to the dataset.
  void Append(const data::SpatialEntity& record);

  const data::Dataset& dataset() const { return dataset_; }

 private:
  /// One cached per-entity text state: the extractor's normalized
  /// strings plus the stage-1 sketch, computed together because every
  /// consumer (pre-filter, then RowFromCache) needs both.
  struct TextEntry {
    features::LgmXExtractor::EntityText text;
    features::EntitySketch sketch;
  };

  /// True when the row clears the calibrated boundary; `score` (when
  /// non-null) receives the row's prioritized group sum regardless.
  /// `key` is caller-owned scratch of compiled_.KeySize() doubles, so the
  /// per-pair check does not allocate.
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
  skyline::CompiledPreference compiled_;
  /// Minimal group-sum key over the accepted training rows: a new pair
  /// is linked when its key is lexicographically ≥ this threshold.
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
};

}  // namespace skyex::core

#endif  // SKYEX_CORE_INCREMENTAL_H_
