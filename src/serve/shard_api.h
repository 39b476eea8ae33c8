#ifndef SKYEX_SERVE_SHARD_API_H_
#define SKYEX_SERVE_SHARD_API_H_

// The narrow, message-shaped boundary between the HTTP server and the
// linking backend: entities, a deadline and the degraded-fallback
// switch go in; ranked LinkResults, or the reason the request was
// refused, come out, and the request's flight timeline is filled on the
// way. The server knows nothing about shard count, placement, or
// transport; the concrete implementation (shard::Router, src/shard/)
// runs its shards in-process, at every shard count including one, and a
// multi-process deployment only needs another implementation of this
// interface — the contract already carries everything that must cross
// a process boundary (see docs/serving.md).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/spatial_entity.h"
#include "obs/flight.h"
#include "serve/service.h"

namespace skyex::serve {

/// One /v1/link or /v1/link_batch request, as the server hands it over.
struct LinkRequest {
  std::vector<data::SpatialEntity> entities;
  /// Replies still missing at this instant are lost. The server takes
  /// the budget after the serve.clock_skew fault point; max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// A shard lost to the deadline or to a wedge contributes its
  /// LinkService::LinkDegraded matches; off, the request is shed (kLost).
  bool degraded_fallback = true;
};

enum class LinkStatus {
  kOk,         // one result per entity, degraded where coverage was lost
  kLost,       // a target missed the deadline or is wedged, no fallback
  kRefused,    // every target refused it: open breakers or closed queues
  kQueueFull,  // every target refused it for a full queue
};

/// The backend's answer. `results` is filled for kOk only.
struct LinkAnswer {
  LinkStatus status = LinkStatus::kOk;
  std::vector<LinkResult> results;
  int retry_after_s = 0;  // kLost / kRefused: a shard breaker's, jittered
  bool deadline_expired = false;  // a target missed the deadline
};

/// A linking backend behind the scatter-gather seam.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Links the request's entities in order, like LinkService::LinkMany:
  /// a later entity can link to an earlier one. Fills the timeline's
  /// queue, batch, scatter/gather and linker fields.
  virtual LinkAnswer Link(LinkRequest request,
                          obs::RequestTimeline* timeline) = 0;

  /// Total records across all shards (for /healthz).
  virtual size_t record_count() const = 0;

  /// Jobs waiting in the shards' queues, summed (for /healthz).
  virtual size_t queue_depth() const = 0;

  virtual size_t num_shards() const = 0;

  /// SaveModel text of the served model (all shards serve one model).
  virtual const std::string& model_text() const = 0;

  /// True when EVERY shard is wedged — with any shard healthy the
  /// backend still answers (degraded where coverage is lost).
  virtual bool wedged() const = 0;

  /// The most open of the shards' breaker states ("closed",
  /// "half_open" or "open"), for /healthz.
  virtual const char* breaker_state() const = 0;

  /// Refreshes the pull-style gauges (shard/<id>/...,
  /// serve/queue_depth) before a /metrics scrape.
  virtual void PublishGauges() const = 0;

  /// Cumulative breaker opens and watchdog trips across all shards.
  virtual uint64_t breaker_opens() const = 0;
  virtual uint64_t watchdog_trips() const = 0;
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SHARD_API_H_
