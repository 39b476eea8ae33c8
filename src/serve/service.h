#ifndef SKYEX_SERVE_SERVICE_H_
#define SKYEX_SERVE_SERVICE_H_

// The linkage service behind the HTTP endpoints: typed request /
// response structs with their JSON forms, a thread-safe wrapper around
// core::IncrementalLinker (whose AddRecord mutates the dataset and must
// be serialized — see core/incremental.h), and the bootstrap that
// turns a dataset + saved model into a calibrated linker.
//
// Besides the full linker path, the service maintains a *degraded
// index*: immutable snapshots (id, source, normalized name, location)
// of every linked record, guarded by its own mutex. When the full path
// is unavailable — deadline expired, linker wedged, breaker open — the
// server can still answer from this index with a cheap
// threshold-on-f_sim match (Jaro-Winkler on normalized names, gated by
// a Haversine radius). Degraded answers are read-only (nothing is
// persisted) and marked "degraded":true in the response.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "data/spatial_entity.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "serve/json_writer.h"

namespace skyex::serve {

/// One record the new entity was linked to.
struct LinkedRecord {
  size_t record = 0;    // index into the served dataset
  uint64_t id = 0;      // the record's own id
  std::string name;
  std::string source;
};

/// Outcome of linking one entity.
struct LinkResult {
  size_t record_index = 0;  // where the new entity landed in the dataset
  std::vector<LinkedRecord> links;
  data::SpatialEntity merged;  // golden record of {entity} ∪ links
  bool degraded = false;       // answered by the fallback path
};

/// One scored candidate link as a shard reports it to the router: the
/// record's position in the *local* shard dataset, the match score
/// (prioritized group sum — see core::ScoredMatch), and a snapshot copy
/// of the record so the router can merge without reaching back into the
/// shard's dataset.
struct ScoredLink {
  size_t record = 0;
  double score = 0.0;
  data::SpatialEntity snapshot;
};

/// Deterministic link ranking shared by the unsharded path and the
/// shard router's gather: strongest score first, ties broken by entity
/// id, then by (global) record index. Keeping one comparator is what
/// makes `--shards=1` responses byte-identical to the unsharded server.
inline bool LinkRankBefore(double score_a, uint64_t id_a, size_t record_a,
                           double score_b, uint64_t id_b, size_t record_b) {
  if (score_a != score_b) return score_a > score_b;
  if (id_a != id_b) return id_a < id_b;
  return record_a < record_b;
}

/// Knobs of the degraded fallback matcher.
struct DegradedOptions {
  double f_sim_threshold = 0.9;  // Jaro-Winkler on normalized names
  double radius_m = 500.0;       // Haversine gate when both have coords
};

/// Parses {"entity": {...}} / an entity object into `out`. `name` is
/// required; everything else optional ("source" accepts the names from
/// data::SourceName or an integer). False + `error` on bad input —
/// including non-finite lat/lon.
bool ParseEntityJson(const obs::json::Value& value,
                     data::SpatialEntity* out, std::string* error);

/// Writes an entity as a JSON object (omits missing attributes).
void WriteEntityJson(json::Writer* writer, const data::SpatialEntity& e);

/// Writes one LinkResult as a JSON object. When `request_id` is given
/// it is written as a leading "request_id" member (single-entity
/// responses echo the id in the body; see docs/serving.md).
void WriteLinkResultJson(json::Writer* writer, const LinkResult& result,
                         const std::string* request_id = nullptr);

/// Batch-level linker record of LinkMany, for the flight recorder: the
/// linker's obs::LinkStats summed over every record of the batch.
using LinkBatchStats = obs::LinkStats;

/// Serializes IncrementalLinker access behind one mutex — the write
/// contract of core/incremental.h. All linkage performed by the server
/// funnels through LinkMany (one lock acquisition per micro-batch).
class LinkService {
 public:
  LinkService(core::IncrementalLinker linker, std::string model_text,
              DegradedOptions degraded_options = {});

  /// Links each entity in order against the (growing) dataset. One
  /// batch = one lock hold = one linker pass. `stats` (optional) is
  /// added to by every record's MatchRecord.
  std::vector<LinkResult> LinkMany(
      const std::vector<data::SpatialEntity>& entities,
      LinkBatchStats* stats = nullptr);

  /// Shard-side half of a scatter-gather link: scores `entity` against
  /// this service's dataset and returns the accepted links (ascending
  /// local index order, unranked — the router ranks after gathering).
  /// When `persist` is true the entity is appended afterwards, exactly
  /// like AddRecord; the owner shard persists, peers only match.
  /// `stats` (optional) is added to by MatchRecord.
  std::vector<ScoredLink> MatchScored(const data::SpatialEntity& entity,
                                      bool persist,
                                      obs::LinkStats* stats = nullptr);

  /// Read-only fallback: matches each entity against the degraded
  /// index by name similarity + radius gate. Never touches the linker
  /// or its mutex, so it stays responsive while the linker is wedged.
  /// Results carry degraded = true and are NOT persisted.
  std::vector<LinkResult> LinkDegraded(
      const std::vector<data::SpatialEntity>& entities) const;

  size_t record_count() const;

  /// SaveModel text of the served model (immutable after construction).
  const std::string& model_text() const { return model_text_; }

  /// Shard identity stamped into audit records (0 unsharded). Set once
  /// at bootstrap, before serving starts.
  void set_shard_id(uint32_t shard_id) { shard_id_ = shard_id; }
  uint32_t shard_id() const { return shard_id_; }

 private:
  struct DegradedEntry {
    uint64_t id = 0;
    std::string source;
    std::string name;             // original, for the response
    std::string normalized_name;  // match key
    geo::GeoPoint location;
  };
  static DegradedEntry MakeDegradedEntry(const data::SpatialEntity& e);

  mutable std::mutex mutex_;
  core::IncrementalLinker linker_;
  const std::string model_text_;
  uint32_t shard_id_ = 0;

  // Separate mutex: a wedged linker thread stalls inside mutex_, and
  // the degraded path must not queue behind it.
  mutable std::mutex degraded_mutex_;
  std::vector<DegradedEntry> degraded_index_;
  const DegradedOptions degraded_options_;
};

/// Builds a LinkService from a dataset and a trained model: blocks the
/// dataset (geo::BlockPoints: QuadFlex when any record has coordinates,
/// Cartesian otherwise), extracts
/// LGM-X features, labels every pair with the model, and calibrates the
/// incremental linker's acceptance threshold on the accepted pairs.
/// Rejects models whose preference reads feature indices outside the
/// LGM-X schema (a corrupt or mismatched model file would otherwise
/// read out of bounds on every request). nullptr + `error` when the
/// model is unusable or no pair is accepted.
std::unique_ptr<LinkService> BootstrapLinkService(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options, std::string* error);

/// Sharded variant: runs the SAME global calibration once on the full
/// dataset, then builds one LinkService per partition, each holding its
/// partition's records plus the full-corpus extractor and the global
/// acceptance threshold (so a pair links on a shard iff it would link
/// unsharded). `partitions[s]` lists dataset indices owned by shard s —
/// every index in exactly one partition, original order preserved.
/// `model_text` (optional) receives the served model text. Empty vector
/// + `error` on failure.
std::vector<std::unique_ptr<LinkService>> BootstrapShardedLinkServices(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options,
    const std::vector<std::vector<size_t>>& partitions,
    std::string* model_text, std::string* error);

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SERVICE_H_
