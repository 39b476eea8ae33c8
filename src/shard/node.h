#ifndef SKYEX_SHARD_NODE_H_
#define SKYEX_SHARD_NODE_H_

// One shard of the serving pipeline: a LinkService over its partition
// of the dataset, fronted by its own bounded job queue and a dedicated
// micro-batching worker thread — the admission -> queue -> linker
// pipeline, one instance per shard. The router talks to a node only
// through TryEnqueue and the job's promise — a message-shaped seam, so
// moving a node out of process is a transport change, not an
// architecture change.
//
// A job is one request's work on this shard: the request's entities
// that target it, in request order, so a batch takes one queue slot and
// one linger. Replies are in GLOBAL record indices: the service maps
// its records into the router's index space and takes each append's
// index when it persists (serve::LinkService::ShareIndexSpace).

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

/// One entity of a job: its position in the request and whether this
/// shard owns (persists) it.
struct ShardTask {
  size_t entity = 0;
  bool persist = false;
};

/// A shard's answer to one job. `ok` is false when the job was skipped
/// (cancelled by the deadline before the node reached it) or failed by
/// fault injection; otherwise `links[t]` holds task t's accepted links
/// (global indices, entity snapshots) and `record_index[t]` the global
/// index a persisted task was appended at. The timings and `stats`
/// feed the request's flight timeline.
struct ShardReply {
  bool ok = false;
  std::vector<std::vector<serve::ScoredLink>> links;
  std::vector<size_t> record_index;
  obs::LinkStats stats;         // the job's linker record
  double queue_wait_us = 0.0;   // enqueue -> batch popped
  double batch_wait_us = 0.0;   // batch popped -> linking starts
  uint32_t batch_size = 0;      // entities linked in the node's batch
};

/// One request's work on one shard, as enqueued.
struct ShardJob {
  std::shared_ptr<const std::vector<data::SpatialEntity>> entities;
  std::vector<ShardTask> tasks;
  double enqueue_us = 0.0;
  uint64_t request_id = 0;
  // Set by the router when it stops waiting; the node then skips the
  // job instead of mutating the dataset for a caller that gave up.
  std::shared_ptr<std::atomic<bool>> cancelled;
  std::promise<ShardReply> reply;
};

struct ShardNodeOptions {
  size_t queue_capacity = 128;    // jobs admitted (429 beyond)
  int batch_window_us = 1000;     // micro-batching linger
  size_t max_batch = 64;          // jobs drained per wakeup
  serve::CircuitBreakerOptions breaker;
};

class ShardNode {
 public:
  ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
            ShardNodeOptions options);
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  void Start();
  /// Closes the queue, drains queued jobs, joins the worker.
  void Stop();

  /// Non-blocking admission onto the shard queue.
  serve::PushResult TryEnqueue(ShardJob job);

  size_t id() const { return id_; }
  serve::LinkService& service() { return *service_; }
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
  // Links `job` into `reply`, or leaves it not ok (skipped, failed).
  void Process(const ShardJob& job, ShardReply* reply);

  const size_t id_;
  std::unique_ptr<serve::LinkService> service_;
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
