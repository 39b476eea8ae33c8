#ifndef SKYEX_SHARD_NODE_H_
#define SKYEX_SHARD_NODE_H_

// One shard of the sharded serving deployment: a LinkService over its
// partition of the dataset, fronted by its own bounded job queue and a
// dedicated micro-batching worker thread (mirroring the unsharded
// server's admission -> queue -> linker-thread pipeline, one instance
// per shard). The router talks to a node only through TryEnqueue and
// the job's promise — a message-shaped seam, so moving a node out of
// process is a transport change, not an architecture change.
//
// Jobs carry LOCAL match work but reply in GLOBAL record indices: the
// node owns the local->global translation table (original dataset
// positions for bootstrapped records, router-assigned indices for
// appends), touched only by the node thread.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/spatial_entity.h"
#include "obs/flight.h"
#include "serve/breaker.h"
#include "serve/queue.h"
#include "serve/service.h"

namespace skyex::shard {

/// A shard's answer to one scattered entity. `links` carry global
/// record indices and entity snapshots, `stats` the shard linker's
/// record of the match; `ok` is false when the job was skipped
/// (cancelled by the deadline before the node reached it) or failed by
/// fault injection.
struct ShardReply {
  bool ok = false;
  std::vector<serve::ScoredLink> links;
  obs::LinkStats stats;
};

/// One scattered entity, as enqueued on a shard.
struct ShardJob {
  data::SpatialEntity entity;
  size_t global_index = 0;  // the entity's global index, if persisted
  bool persist = false;     // true on the owner shard only
  std::shared_ptr<std::atomic<bool>> cancelled;  // deadline expiry flag
  std::promise<ShardReply> reply;
};

struct ShardNodeOptions {
  size_t queue_capacity = 128;
  int batch_window_us = 200;  // micro-batching linger
  size_t max_batch = 16;
  serve::CircuitBreakerOptions breaker;
};

class ShardNode {
 public:
  /// `global_of_local[i]` is the global index of the service's local
  /// record i (the bootstrap partition, original dataset positions).
  ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
            std::vector<size_t> global_of_local, ShardNodeOptions options);
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  void Start();
  /// Closes the queue, drains queued jobs, joins the worker.
  void Stop();

  /// Non-blocking admission onto the shard queue.
  serve::PushResult TryEnqueue(ShardJob job);

  size_t id() const { return id_; }
  serve::CircuitBreaker& breaker() { return breaker_; }
  size_t queue_depth() const { return queue_.size(); }
  size_t record_count() const { return service_->record_count(); }
  int64_t heartbeat_ms() const {
    return heartbeat_ms_.load(std::memory_order_relaxed);
  }
  bool busy() const { return busy_.load(std::memory_order_relaxed); }
  bool wedged() const { return wedged_.load(std::memory_order_relaxed); }
  void set_wedged(bool wedged) {
    wedged_.store(wedged, std::memory_order_relaxed);
  }

 private:
  void Loop();
  void Process(ShardJob& job);

  const size_t id_;
  std::unique_ptr<serve::LinkService> service_;
  std::vector<size_t> global_of_local_;  // node thread only
  const ShardNodeOptions options_;
  serve::BatchQueue<ShardJob> queue_;
  serve::CircuitBreaker breaker_;
  std::atomic<int64_t> heartbeat_ms_;
  std::atomic<bool> busy_{false};
  std::atomic<bool> wedged_{false};
  // Per-shard fault point names ("shard.<id>.stall" / ".error"); the
  // generic "shard.stall" / "shard.error" points hit every shard.
  const std::string stall_point_;
  const std::string error_point_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_NODE_H_
