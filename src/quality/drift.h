#ifndef SKYEX_QUALITY_DRIFT_H_
#define SKYEX_QUALITY_DRIFT_H_

// Online drift detection against a train-time ReferenceProfile.
// Observations accumulate into two independent sliding windows:
//
//   row window     — one observation per observed candidate pair: the
//                    full LGM-X feature vector and its model score.
//                    The linker picks the pairs (1 scored row in
//                    `row_sample_every`, numbered per linker) and
//                    extracts full rows for those only; the detector
//                    takes every row it is given. When `window` rows
//                    complete, per-feature PSI and a score-distribution
//                    KS statistic are evaluated and the window restarts.
//   entity window  — one observation per incoming entity (lat, lon,
//                    name length). Evaluated every `entity_window`
//                    entities. Separate on purpose: traffic whose
//                    coordinates drifted out of the served region
//                    produces NO candidate rows, so only this window
//                    can see it.
//
// The detector is pure state + math; publishing gauges, flight-recorder
// markers and the /debug/quality JSON is the Runtime's job
// (src/quality/quality.h). Not thread-safe — callers serialize (the
// Runtime wraps it in a mutex).

#include <cstdint>
#include <vector>

#include "data/spatial_entity.h"
#include "quality/profile.h"

namespace skyex::quality {

struct DriftOptions {
  size_t window = 512;         // observed (post-decimation) rows per evaluation
  size_t entity_window = 256;  // entities per evaluation
  /// Row decimation: observe every Nth scored row (1 = all). One request
  /// contributes a correlated burst of rows (every candidate shares the
  /// incoming entity), so an undecimated window spans only a handful of
  /// requests and its PSI is dominated by per-entity variance rather
  /// than traffic drift. The default spreads a window of 512 across
  /// ~8k scored rows. Applied where rows are numbered, before scoring:
  /// Runtime::ShouldCapture passes it to the linker as
  /// MatchCapture::drift_every, and ObserveRow observes every row.
  size_t row_sample_every = 16;
  /// PSI past this (any feature, or any entity dimension) counts the
  /// evaluation as a drift trip. 0.25 is the conventional "major
  /// shift" boundary.
  double psi_threshold = 0.25;
  /// KS statistic on the score distribution past this trips too.
  double ks_threshold = 0.25;
};

class DriftDetector {
 public:
  DriftDetector(ReferenceProfile profile, DriftOptions options);

  /// One incoming entity (every request, sampled or not — it is cheap).
  void ObserveEntity(const data::SpatialEntity& entity);

  /// One observed candidate pair: full feature row + model score. `n`
  /// must be the profile's feature count (mismatched rows are ignored).
  /// No decimation here: the caller passes only the rows it observes.
  void ObserveRow(const double* row, size_t n, double score);

  struct Stats {
    uint64_t row_windows = 0;     // completed row-window evaluations
    uint64_t entity_windows = 0;  // completed entity-window evaluations
    uint64_t trips = 0;           // evaluations past a threshold
    // Results of the most recent evaluations (0 until the first one).
    double psi_feature_max = 0.0;
    int psi_feature_argmax = -1;
    double ks_score = 0.0;
    double psi_lat = 0.0;
    double psi_lon = 0.0;
    double psi_name_len = 0.0;
    bool drifting = false;  // the latest completed evaluation tripped
    // Fill of the currently accumulating (incomplete) windows.
    uint64_t rows_pending = 0;
    uint64_t entities_pending = 0;
  };
  const Stats& stats() const { return stats_; }
  const DriftOptions& options() const { return options_; }
  const ReferenceProfile& profile() const { return profile_; }

 private:
  void EvaluateRowWindow();
  void EvaluateEntityWindow();

  ReferenceProfile profile_;
  DriftOptions options_;
  Stats stats_;

  std::vector<ProfileHistogram> feature_window_;
  ProfileHistogram score_window_;
  ProfileHistogram lat_window_;
  ProfileHistogram lon_window_;
  ProfileHistogram name_len_window_;
  uint64_t rows_in_window_ = 0;
  uint64_t entities_in_window_ = 0;
};

}  // namespace skyex::quality

#endif  // SKYEX_QUALITY_DRIFT_H_
