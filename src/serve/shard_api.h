#ifndef SKYEX_SERVE_SHARD_API_H_
#define SKYEX_SERVE_SHARD_API_H_

// The narrow, message-shaped boundary between the HTTP server and a
// sharded linking backend: entities + a deadline go in, ranked
// LinkResults + per-request shard stats come out. The server knows
// nothing about shard count, placement, or transport; the concrete
// implementation (shard::Router, src/shard/) runs shards in-process
// today, and a multi-process deployment only needs another
// implementation of this interface — the contract already carries
// everything that must cross a process boundary (see docs/serving.md).

#include <cstdint>
#include <string>
#include <vector>

#include "data/spatial_entity.h"
#include "obs/flight.h"
#include "serve/service.h"

namespace skyex::serve {

/// Per-request scatter-gather timing and fan-out stats, the sharded
/// analogue of LinkBatchStats. Times sum over the batch's entities.
struct ShardPhases {
  double scatter_us = 0.0;     // routing + enqueueing onto shard queues
  double shard_link_us = 0.0;  // waiting for shard match results
  double gather_us = 0.0;      // merge + rank of the gathered links
  uint32_t shards_touched = 0;  // scatter targets across the batch
  uint32_t shards_failed = 0;   // targets that timed out / errored
  obs::LinkStats link;  // the shards' linker records, summed over replies
};

/// A linking backend behind the scatter-gather seam.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Links each entity in order, like LinkService::LinkMany. A result
  /// whose scatter lost at least one shard carries degraded = true
  /// (partial links, merged = entity when every target failed).
  /// `deadline_ms` ≤ 0 means no deadline; `phases` is added to: the
  /// batch's scatter/link/gather timings and the shards' linker records.
  virtual std::vector<LinkResult> Link(
      const std::vector<data::SpatialEntity>& entities, int deadline_ms,
      ShardPhases* phases) = 0;

  /// Total records across all shards (for /healthz).
  virtual size_t record_count() const = 0;

  virtual size_t num_shards() const = 0;

  /// SaveModel text of the served model (all shards serve one model).
  virtual const std::string& model_text() const = 0;

  /// True when EVERY shard is wedged — with any shard healthy the
  /// router still answers (degraded where coverage is lost).
  virtual bool wedged() const = 0;

  /// Refreshes the per-shard gauges (shard/<id>/...) before a /metrics
  /// scrape.
  virtual void PublishGauges() const = 0;

  /// Cumulative breaker opens across all shards (serve/breaker_opens).
  virtual uint64_t breaker_opens() const = 0;
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SHARD_API_H_
