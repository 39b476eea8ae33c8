#ifndef SKYEX_SHARD_ROUTER_H_
#define SKYEX_SHARD_ROUTER_H_

// Scatter-gather router over geo-partitioned shard nodes — the
// serve::ShardBackend behind every `skyex_serve` link request, at any
// `--shards` count (one included).
//
// Per request: route each entity to every shard whose cells intersect
// the candidate radius (owner always included; coordinate-less
// entities fan out everywhere) and send each target shard ONE job with
// its entities in request order. The owner persists an entity and
// takes its global record index when it appends; a node's FIFO order
// lets entity i+1 match entity i, whose append on its owner comes first
// in the same job or an earlier one. Then wait for the replies under
// the request deadline and gather: concatenate the global-indexed
// links, rank them and merge the golden record with serve::RankAndMerge
// (LinkService::LinkMany answers through it too). Each target's outcome
// shapes the answer (docs/robustness.md):
//   - lost to the deadline or to a wedged shard: with the degraded
//     fallback on, the shard contributes its LinkDegraded matches; off,
//     the request is shed (LinkStatus::kLost);
//   - refused at admission (open breaker, full or closed queue): the
//     request is refused only when every target refused it;
//   - failed by fault injection: the shard contributes nothing.
// A result with any target not answered is "degraded":true; with no
// target answered it falls back to the bare entity. An entity whose
// owner did not score it is observed by the quality hooks here, so each
// entity is observed once.
//
// The router runs the watchdog: a shard whose worker stops heartbeating
// while work is pending is marked wedged, its breaker is forced open,
// and a watchdog_trip flight event is recorded. Recovery clears the
// mark.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/skyex_t.h"
#include "data/spatial_entity.h"
#include "serve/shard_api.h"
#include "shard/node.h"
#include "shard/shard_map.h"

namespace skyex::shard {

/// The serving pipeline's knobs; skyex_serve's flags set each of them.
struct RouterOptions {
  ShardNodeOptions node;  // per-shard queue/batching/breaker knobs
  ShardMapOptions map;
  /// A shard busy (or with queued work) whose heartbeat is older than
  /// this is wedged; 0 disables the watchdog.
  int watchdog_ms = 0;
};

class Router : public serve::ShardBackend {
 public:
  /// One node per service; `partitions[s]` lists the global indices of
  /// service s's records, and appends take indices from
  /// `initial_records` on. `radius_m` must equal the shards' linker
  /// candidate radius — it bounds the scatter target set.
  Router(std::unique_ptr<ShardMap> map,
         std::vector<std::unique_ptr<serve::LinkService>> services,
         const std::vector<std::vector<size_t>>& partitions,
         std::string model_text, double radius_m, size_t initial_records,
         RouterOptions options);
  ~Router() override;

  void Start();
  void Stop();

  // serve::ShardBackend:
  serve::LinkAnswer Link(serve::LinkRequest request,
                         obs::RequestTimeline* timeline) override;
  size_t record_count() const override;
  size_t queue_depth() const override;
  size_t num_shards() const override { return nodes_.size(); }
  const std::string& model_text() const override { return model_text_; }
  bool wedged() const override;
  const char* breaker_state() const override;
  void PublishGauges() const override;
  uint64_t breaker_opens() const override;
  uint64_t watchdog_trips() const override {
    return watchdog_trips_.load(std::memory_order_relaxed);
  }

  ShardNode& node(size_t s) { return *nodes_[s]; }
  const ShardMap& map() const { return *map_; }

 private:
  void WatchdogLoop();
  // Records a breaker_open flight event + dump when shard s's breaker
  // opened since the last call (deadline and error failures, watchdog
  // force-opens).
  void NoteBreakerOpens(size_t s);

  std::unique_ptr<ShardMap> map_;
  // The next append's global index. The nodes' services point at it,
  // so it outlives nodes_.
  std::atomic<size_t> next_index_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
  const std::string model_text_;
  const double radius_m_;
  const RouterOptions options_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> watchdog_trips_{0};
  // Per shard: breaker opens already reported to the flight recorder.
  std::vector<std::atomic<uint64_t>> reported_opens_;
  std::thread watchdog_;
  bool started_ = false;
};

/// Builds the serving backend: shard map over the dataset's points
/// (`num_shards` 0 clamps to 1), global calibration
/// (serve::BootstrapShardedLinkServices), one node per partition. The
/// router is NOT started. nullptr + `error` on failure.
std::unique_ptr<Router> BootstrapRouter(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& linker_options, size_t num_shards,
    const RouterOptions& options, std::string* error);

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_ROUTER_H_
