#include "quality/quality.h"

#include <cstdio>
#include <ostream>
#include <utility>

#include "obs/context.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace skyex::quality {

Runtime& Runtime::Global() {
  static Runtime* runtime = new Runtime();  // leaked, like the registry
  return *runtime;
}

bool Runtime::Enable(const QualityOptions& options,
                     const std::string& model_text, size_t feature_count,
                     std::vector<std::string> feature_names,
                     std::string* error) {
  Disable();
  const uint64_t model_hash = HashModelText(model_text);
  const bool want_audit = !options.audit.path.empty();
  const bool want_drift = !options.profile_path.empty();
  if (!want_audit && !want_drift) {
    if (error != nullptr) {
      *error = "quality: neither an audit log nor a reference profile given";
    }
    return false;
  }
  std::unique_ptr<DriftDetector> detector;
  if (want_drift) {
    std::string load_error;
    auto profile = LoadProfileFromFile(options.profile_path, &load_error);
    if (!profile.has_value()) {
      if (error != nullptr) *error = "quality: " + load_error;
      return false;
    }
    if (profile->model_hash != model_hash) {
      if (error != nullptr) {
        *error = "quality: reference profile was built for model " +
                 HashHex(profile->model_hash) + " but serving model " +
                 HashHex(model_hash) + "; retrain or drop the profile";
      }
      return false;
    }
    if (profile->features.size() != feature_count) {
      if (error != nullptr) {
        *error = "quality: profile has " +
                 std::to_string(profile->features.size()) +
                 " feature histograms, schema has " +
                 std::to_string(feature_count);
      }
      return false;
    }
    detector =
        std::make_unique<DriftDetector>(std::move(*profile), options.drift);
  }
  if (want_audit) {
    AuditLogHeader header;
    header.feature_count = static_cast<uint32_t>(feature_count);
    header.model_hash = model_hash;
    if (!writer_.Open(options.audit, header, error)) return false;
  }
  const bool has_detector = detector != nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    model_hash_ = model_hash;
    profile_path_ = options.profile_path;
    feature_names_ = std::move(feature_names);
    drift_options_ = options.drift;
    detector_ = std::move(detector);
    marker_trips_seen_ = 0;
  }
  sample_every_ = options.audit.sample_every == 0 ? 1
                                                  : options.audit.sample_every;
  row_sample_every_ = options.drift.row_sample_every == 0
                          ? 1
                          : options.drift.row_sample_every;
  attempts_.store(0, std::memory_order_relaxed);
  sampled_.store(0, std::memory_order_relaxed);
  drift_on_.store(has_detector, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
  return true;
}

void Runtime::Disable() {
  enabled_.store(false, std::memory_order_release);
  drift_on_.store(false, std::memory_order_release);
  writer_.Close();
  std::lock_guard<std::mutex> lock(mutex_);
  detector_.reset();
}

bool Runtime::enabled() const {
  return enabled_.load(std::memory_order_acquire);
}

bool Runtime::audit_enabled() const { return writer_.open(); }

bool Runtime::drift_enabled() const {
  return drift_on_.load(std::memory_order_acquire);
}

bool Runtime::ShouldCapture(MatchCapture* request) {
  if (!enabled()) return false;
  const uint64_t n = attempts_.fetch_add(1, std::memory_order_relaxed);
  if (n % sample_every_ != 0) return false;
  sampled_.fetch_add(1, std::memory_order_relaxed);
  if (request != nullptr) {
    request->audit = writer_.open();
    request->drift_every = drift_enabled() ? row_sample_every_ : 0;
  }
  return true;
}

void Runtime::MaybeEmitDriftMarker() {
  if (detector_ == nullptr) return;
  const DriftDetector::Stats& stats = detector_->stats();
  if (stats.trips <= marker_trips_seen_) return;
  marker_trips_seen_ = stats.trips;
  char detail[72];
  std::snprintf(detail, sizeof(detail),
                "psi_max=%.2f f=%d ks=%.2f lat=%.2f len=%.2f",
                stats.psi_feature_max, stats.psi_feature_argmax,
                stats.ks_score, stats.psi_lat, stats.psi_name_len);
  obs::FlightRecorder::Global().RecordEvent("quality_drift", detail);
}

void Runtime::ObserveEntity(const data::SpatialEntity& entity) {
  if (!drift_enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (detector_ == nullptr) return;
  detector_->ObserveEntity(entity);
  MaybeEmitDriftMarker();
}

void Runtime::RecordCapture(const data::SpatialEntity& entity,
                            uint32_t shard_id, MatchCapture capture) {
  if (!enabled()) return;
  if (!capture.observed.empty() && drift_enabled()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (detector_ != nullptr) {
      for (const uint32_t d : capture.observed) {
        const CandidateDecision& row = capture.decisions[d];
        detector_->ObserveRow(row.features.data(), row.features.size(),
                              row.score);
      }
      MaybeEmitDriftMarker();
    }
  }
  if (!capture.audit || !writer_.open()) return;
  AuditRecord record;
  record.request_id = obs::CurrentContext().request_id;
  record.entity_id = entity.id;
  record.shard_id = shard_id;
  record.degraded = false;
  record.model_hash = model_hash_;
  record.capture = std::move(capture);
  writer_.Append(std::move(record));
}

void Runtime::RecordDegraded(const data::SpatialEntity& entity,
                             uint32_t shard_id) {
  if (!writer_.open()) return;
  AuditRecord record;
  record.request_id = obs::CurrentContext().request_id;
  record.entity_id = entity.id;
  record.shard_id = shard_id;
  record.degraded = true;
  record.model_hash = model_hash_;
  writer_.Append(std::move(record));
}

void Runtime::PublishMetrics() {
  if (!enabled()) return;
  const Snapshot snap = snapshot();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (snap.audit) {
    registry.GetGauge("quality/audit_attempts")
        .Set(static_cast<double>(snap.attempts));
    registry.GetGauge("quality/audit_sampled")
        .Set(static_cast<double>(snap.sampled));
    registry.GetGauge("quality/audit_written")
        .Set(static_cast<double>(snap.written));
    registry.GetGauge("quality/audit_dropped")
        .Set(static_cast<double>(snap.dropped));
  }
  if (snap.drift) {
    const DriftDetector::Stats& d = snap.drift_stats;
    registry.GetGauge("quality/psi_feature_max").Set(d.psi_feature_max);
    registry.GetGauge("quality/psi_feature_argmax")
        .Set(static_cast<double>(d.psi_feature_argmax));
    registry.GetGauge("quality/ks_score").Set(d.ks_score);
    registry.GetGauge("quality/psi_lat").Set(d.psi_lat);
    registry.GetGauge("quality/psi_lon").Set(d.psi_lon);
    registry.GetGauge("quality/psi_name_len").Set(d.psi_name_len);
    registry.GetGauge("quality/drift_row_windows")
        .Set(static_cast<double>(d.row_windows));
    registry.GetGauge("quality/drift_entity_windows")
        .Set(static_cast<double>(d.entity_windows));
    registry.GetGauge("quality/drift_trips")
        .Set(static_cast<double>(d.trips));
    registry.GetGauge("quality/drifting").Set(d.drifting ? 1.0 : 0.0);
  }
}

void Runtime::Flush() { writer_.Flush(); }

Runtime::Snapshot Runtime::snapshot() const {
  Snapshot snap;
  snap.enabled = enabled();
  snap.audit = writer_.open();
  snap.drift = drift_enabled();
  snap.audit_path = writer_.path();
  snap.sample_every = sample_every_;
  snap.attempts = attempts_.load(std::memory_order_relaxed);
  snap.sampled = sampled_.load(std::memory_order_relaxed);
  snap.written = writer_.written();
  snap.dropped = writer_.dropped();
  std::lock_guard<std::mutex> lock(mutex_);
  snap.model_hash = model_hash_;
  snap.profile_path = profile_path_;
  snap.drift_options = drift_options_;
  if (detector_ != nullptr) snap.drift_stats = detector_->stats();
  return snap;
}

void Runtime::WriteDebugJson(std::ostream& out) const {
  const Snapshot snap = snapshot();
  out << "{\"enabled\": " << (snap.enabled ? "true" : "false");
  out << ", \"model_hash\": \"" << obs::json::Escape(HashHex(snap.model_hash))
      << '"';
  out << ", \"audit\": {\"enabled\": " << (snap.audit ? "true" : "false");
  if (snap.audit) {
    out << ", \"path\": \"" << obs::json::Escape(snap.audit_path)
        << "\", \"sample_every\": " << snap.sample_every
        << ", \"attempts\": " << snap.attempts
        << ", \"sampled\": " << snap.sampled
        << ", \"written\": " << snap.written
        << ", \"dropped\": " << snap.dropped;
  }
  out << "}, \"drift\": {\"enabled\": " << (snap.drift ? "true" : "false");
  if (snap.drift) {
    const DriftDetector::Stats& d = snap.drift_stats;
    std::string feature = "none";
    if (d.psi_feature_argmax >= 0) {
      const auto index = static_cast<size_t>(d.psi_feature_argmax);
      std::lock_guard<std::mutex> lock(mutex_);
      feature = index < feature_names_.size() ? feature_names_[index]
                                              : "X" + std::to_string(index);
    }
    out << ", \"profile\": \"" << obs::json::Escape(snap.profile_path)
        << "\", \"window\": " << snap.drift_options.window
        << ", \"row_sample_every\": " << snap.drift_options.row_sample_every
        << ", \"entity_window\": " << snap.drift_options.entity_window
        << ", \"psi_threshold\": " << snap.drift_options.psi_threshold
        << ", \"ks_threshold\": " << snap.drift_options.ks_threshold
        << ", \"row_windows\": " << d.row_windows
        << ", \"entity_windows\": " << d.entity_windows
        << ", \"trips\": " << d.trips
        << ", \"psi_feature_max\": " << d.psi_feature_max
        << ", \"psi_feature\": \"" << obs::json::Escape(feature)
        << "\", \"ks_score\": " << d.ks_score
        << ", \"psi_lat\": " << d.psi_lat << ", \"psi_lon\": " << d.psi_lon
        << ", \"psi_name_len\": " << d.psi_name_len
        << ", \"drifting\": " << (d.drifting ? "true" : "false")
        << ", \"rows_pending\": " << d.rows_pending
        << ", \"entities_pending\": " << d.entities_pending;
  }
  out << "}}";
}

}  // namespace skyex::quality
