#ifndef SKYEX_QUALITY_QUALITY_H_
#define SKYEX_QUALITY_QUALITY_H_

// Linkage-quality observability runtime: the process-global object the
// serving layer hooks into. It owns the decision audit log writer
// (quality/audit_log.h) and the drift detector (quality/drift.h), and
// publishes their state as `quality/*` gauges on the metrics registry,
// `quality_drift` flight-recorder marker events, and the
// GET /debug/quality JSON.
//
// Everything is inert until Enable() is called (skyex_serve does so
// when --audit-log or a reference profile is given).
//
// Thread-safety: Enable/Disable bracket serving; every other member is
// safe to call concurrently (the per-shard node threads and the
// router's I/O workers all feed the same runtime).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/spatial_entity.h"
#include "quality/audit_log.h"
#include "quality/drift.h"
#include "quality/profile.h"

namespace skyex::quality {

struct QualityOptions {
  /// audit.path empty leaves the audit log off.
  AuditWriterOptions audit;
  /// Empty leaves drift detection off.
  std::string profile_path;
  DriftOptions drift;
};

class Runtime {
 public:
  /// Leaked singleton, same lifetime contract as the metrics registry.
  static Runtime& Global();

  /// Opens the audit log and/or loads the reference profile.
  /// `model_text` is the served model's model_io text (its hash stamps
  /// every artifact); `feature_count` the LGM-X schema width;
  /// `feature_names` (optional) labels drift output. False + `error`
  /// when an artifact cannot be opened or the profile's model hash
  /// disagrees with the served model.
  bool Enable(const QualityOptions& options, const std::string& model_text,
              size_t feature_count, std::vector<std::string> feature_names,
              std::string* error);

  /// Flushes and closes the audit log, drops the detector. Idempotent.
  void Disable();

  bool enabled() const;
  bool audit_enabled() const;
  bool drift_enabled() const;

  /// Per-link-attempt capture decision (audit sampling). False whenever
  /// nothing needs the capture, so the linker skips the capture path
  /// entirely. On true, `request` (optional) is set to what this runtime
  /// keeps of the attempt: the full audit trail when the audit log is
  /// open, else only the drift rows (MatchCapture::audit), and the drift
  /// detector's row decimation when drift is on (drift_every).
  bool ShouldCapture(MatchCapture* request = nullptr);

  /// Entity-level drift observation — called for every incoming entity,
  /// sampled or not.
  void ObserveEntity(const data::SpatialEntity& entity);

  /// A captured link decision: feeds the drift detector exactly the
  /// rows the linker marked observed (no runtime lock when there are
  /// none) and appends the audit record when the capture is an audit
  /// one. `capture` is consumed.
  void RecordCapture(const data::SpatialEntity& entity, uint32_t shard_id,
                     MatchCapture capture);

  /// A degraded-path answer for a sampled entity: a decision-less audit
  /// record with the degraded flag.
  void RecordDegraded(const data::SpatialEntity& entity, uint32_t shard_id);

  /// Pushes audit counters and drift statistics into the metrics
  /// registry as `quality/*` gauges (the /metrics handler calls this
  /// per scrape, like the process gauges).
  void PublishMetrics();

  /// Blocks until queued audit records are on disk.
  void Flush();

  struct Snapshot {
    bool enabled = false;
    bool audit = false;
    bool drift = false;
    uint64_t model_hash = 0;
    std::string audit_path;
    uint64_t sample_every = 1;
    uint64_t attempts = 0;
    uint64_t sampled = 0;
    uint64_t written = 0;
    uint64_t dropped = 0;
    std::string profile_path;
    DriftOptions drift_options;
    DriftDetector::Stats drift_stats;
  };
  Snapshot snapshot() const;

  /// The GET /debug/quality body: a JSON object with "enabled",
  /// "audit" and "drift" members (docs/observability.md).
  void WriteDebugJson(std::ostream& out) const;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

 private:
  Runtime() = default;
  ~Runtime() = default;

  /// Under mutex_: flight marker for drift trips not yet reported.
  void MaybeEmitDriftMarker();

  // Hot-path flags are atomics so ShouldCapture/ObserveEntity cost one
  // relaxed load when quality observability is off.
  std::atomic<bool> enabled_{false};
  std::atomic<bool> drift_on_{false};
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> sampled_{0};
  uint64_t sample_every_ = 1;
  uint64_t row_sample_every_ = 1;  // drift_every of a drift capture

  mutable std::mutex mutex_;  // guards detector_ and the fields below
  uint64_t model_hash_ = 0;
  std::string profile_path_;
  std::vector<std::string> feature_names_;
  DriftOptions drift_options_;
  std::unique_ptr<DriftDetector> detector_;
  uint64_t marker_trips_seen_ = 0;  // drift trips already sent to flight

  AuditWriter writer_;  // internally synchronized
};

}  // namespace skyex::quality

#endif  // SKYEX_QUALITY_QUALITY_H_
