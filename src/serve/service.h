#ifndef SKYEX_SERVE_SERVICE_H_
#define SKYEX_SERVE_SERVICE_H_

// The linkage service behind the HTTP endpoints: typed request /
// response structs with their JSON forms, a thread-safe wrapper around
// core::IncrementalLinker (whose AddRecord mutates the dataset and must
// be serialized — see core/incremental.h), and the bootstrap that
// turns a dataset + saved model into a calibrated linker.
//
// Every link runs through MatchScored under the linker mutex, and
// LinkMany answers through RankAndMerge, as the shard router's gather
// does. When the full path is unavailable — deadline expired, linker
// wedged — the server answers from LinkDegraded: Jaro-Winkler on
// normalised names over the linker's own records, located pairs gated
// by a Haversine radius, candidates from the linker's grid. It reads
// under a records lock that only an append takes exclusively, so a
// wedged MatchRecord cannot hold it up. Degraded answers are read-only
// (nothing is persisted) and marked "degraded":true in the response.

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
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

/// One scored candidate link as MatchScored reports it: the record's
/// position in the service's dataset (a shard's *local* index), the
/// match score (prioritized group sum — see core::ScoredMatch), and a
/// snapshot copy of the record so RankAndMerge never reaches back into
/// the dataset.
struct ScoredLink {
  size_t record = 0;
  double score = 0.0;
  data::SpatialEntity snapshot;
};

/// Ranks `links` (strongest score first, then entity id, then record
/// index) and merges the golden record of them and `entity`, stored at
/// `record_index`. LinkMany and the shard router's gather both answer
/// through it, so `--shards=1` is byte-identical to the unsharded server.
LinkResult RankAndMerge(const data::SpatialEntity& entity,
                        size_t record_index, std::vector<ScoredLink> links);

/// Degraded matching: normalised-name Jaro-Winkler at least this and,
/// when both records have coordinates, HaversineMeters at most this.
inline constexpr double kDegradedNameSimilarity = 0.9;
inline constexpr double kDegradedRadiusM = 500.0;

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
/// contract of core/incremental.h. Every link the service makes runs
/// through MatchScored, one lock acquisition per entity.
class LinkService {
 public:
  LinkService(core::IncrementalLinker linker, std::string model_text);

  /// Links each entity in order against the (growing) dataset: each goes
  /// through MatchScored(entity, /*persist=*/true) and RankAndMerge.
  /// `stats` (optional) is added to by every record's MatchRecord.
  std::vector<LinkResult> LinkMany(
      const std::vector<data::SpatialEntity>& entities,
      LinkBatchStats* stats = nullptr);

  /// Scores `entity` against this service's dataset and returns the
  /// accepted links (ascending local index order, unranked). When
  /// `persist` is true the entity is appended afterwards, exactly like
  /// AddRecord, and `record_index` (optional) receives its index; a
  /// shard router's owner shard persists, its peers only match. `stats`
  /// (optional) is added to by MatchRecord.
  std::vector<ScoredLink> MatchScored(const data::SpatialEntity& entity,
                                      bool persist,
                                      obs::LinkStats* stats = nullptr,
                                      size_t* record_index = nullptr);

  /// Read-only fallback: matches each entity against the linker's
  /// records by name similarity + radius gate. It takes the records lock
  /// — never the linker mutex, so a wedged linker cannot stall it — and
  /// scores names after releasing it. Results carry degraded = true and
  /// are NOT persisted.
  std::vector<LinkResult> LinkDegraded(
      const std::vector<data::SpatialEntity>& entities) const;

  /// Read under the records lock, so safe while the linker is wedged.
  size_t record_count() const;

  /// SaveModel text of the served model (immutable after construction).
  const std::string& model_text() const { return model_text_; }

  /// Shard identity stamped into audit records (0 unsharded). Set once
  /// at bootstrap, before serving starts.
  void set_shard_id(uint32_t shard_id) { shard_id_ = shard_id; }
  uint32_t shard_id() const { return shard_id_; }

 private:
  std::mutex mutex_;  // the linker's write serialization
  core::IncrementalLinker linker_;
  const std::string model_text_;
  uint32_t shard_id_ = 0;

  // Excludes Append (taken inside mutex_) from the readers that skip
  // mutex_, LinkDegraded and record_count: a wedged linker thread stalls
  // inside mutex_, and they must not queue behind it.
  mutable std::shared_mutex records_mutex_;
};

/// Builds a LinkService from a dataset and a trained model: blocks the
/// dataset (geo::BlockPoints: QuadFlex when any record has coordinates,
/// Cartesian otherwise), extracts the LGM-X columns the model's
/// preference reads (core::ProjectModel), labels every pair with the
/// model, and calibrates the incremental linker's acceptance threshold
/// on the accepted pairs. Rejects models whose preference reads feature
/// indices outside the LGM-X schema (a corrupt or mismatched model file
/// would otherwise read out of bounds on every request). nullptr +
/// `error` when the model is unusable or no pair is accepted.
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
