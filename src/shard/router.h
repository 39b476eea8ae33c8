#ifndef SKYEX_SHARD_ROUTER_H_
#define SKYEX_SHARD_ROUTER_H_

// Scatter-gather router over geo-partitioned shard nodes — the
// serve::ShardBackend implementation behind `skyex_serve --shards=N`.
//
// Per entity: scatter to every shard whose cells intersect the
// candidate radius (owner always included; coordinate-less entities
// fan out everywhere), wait for the shard replies under the request
// deadline, then gather — concatenate the global-indexed links, then
// rank them and merge the golden record from the gathered snapshots
// with serve::RankAndMerge, through which the unsharded path answers
// too. A shard lost to its breaker, queue, deadline, or fault
// injection degrades the result ("degraded":true, partial links)
// instead of failing the request; only when EVERY target is lost does
// the result fall back to the bare entity. Entities of one batch are
// processed sequentially, so a batch's earlier entities are matchable
// by its later ones — the same intra-batch semantics as the unsharded
// linker.
//
// The router runs its own watchdog: a shard whose worker stops
// heartbeating while work is pending is marked wedged, its breaker is
// forced open (scatter stops paying the deadline for it), and a
// flight-recorder event is logged. Recovery clears the mark.

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

struct RouterOptions {
  ShardNodeOptions node;  // per-shard queue/batching/breaker knobs
  ShardMapOptions map;
  /// A shard busy (or with queued work) whose heartbeat is older than
  /// this is wedged; 0 disables the watchdog.
  int watchdog_ms = 2000;
};

class Router : public serve::ShardBackend {
 public:
  /// `radius_m` must equal the shards' linker candidate radius — it
  /// bounds the scatter target set. `initial_records` seeds the global
  /// index counter (appends start after the bootstrap dataset).
  Router(std::unique_ptr<ShardMap> map,
         std::vector<std::unique_ptr<ShardNode>> nodes,
         std::string model_text, double radius_m, size_t initial_records,
         RouterOptions options);
  ~Router() override;

  void Start();
  void Stop();

  // serve::ShardBackend:
  std::vector<serve::LinkResult> Link(
      const std::vector<data::SpatialEntity>& entities, int deadline_ms,
      serve::ShardPhases* phases) override;
  size_t record_count() const override;
  size_t queue_depth() const override;
  size_t num_shards() const override { return nodes_.size(); }
  const std::string& model_text() const override { return model_text_; }
  bool wedged() const override;
  void PublishGauges() const override;
  uint64_t breaker_opens() const override;

  ShardNode& node(size_t s) { return *nodes_[s]; }
  const ShardMap& map() const { return *map_; }

 private:
  void WatchdogLoop();

  std::unique_ptr<ShardMap> map_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
  const std::string model_text_;
  const double radius_m_;
  const RouterOptions options_;
  std::atomic<size_t> next_index_;
  std::atomic<bool> stopping_{false};
  std::vector<uint64_t> seen_opens_;  // watchdog thread only
  std::thread watchdog_;
  bool started_ = false;
};

/// Builds the full sharded backend: shard map over the dataset's
/// points, global calibration (serve::BootstrapShardedLinkServices),
/// one node per partition. The router is NOT started. nullptr +
/// `error` on failure.
std::unique_ptr<Router> BootstrapRouter(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& linker_options, size_t num_shards,
    const RouterOptions& options, std::string* error);

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_ROUTER_H_
