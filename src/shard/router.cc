#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "prof/prof.h"

namespace skyex::shard {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Router::Router(std::unique_ptr<ShardMap> map,
               std::vector<std::unique_ptr<ShardNode>> nodes,
               std::string model_text, double radius_m,
               size_t initial_records, RouterOptions options)
    : map_(std::move(map)),
      nodes_(std::move(nodes)),
      model_text_(std::move(model_text)),
      radius_m_(radius_m),
      options_(options),
      next_index_(initial_records),
      seen_opens_(nodes_.size(), 0) {}

Router::~Router() { Stop(); }

void Router::Start() {
  if (started_) return;
  started_ = true;
  for (auto& node : nodes_) node->Start();
  if (options_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void Router::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& node : nodes_) node->Stop();
  started_ = false;
}

std::vector<serve::LinkResult> Router::Link(
    const std::vector<data::SpatialEntity>& entities, int deadline_ms,
    serve::ShardPhases* phases) {
  const int64_t deadline_at = deadline_ms > 0 ? NowMs() + deadline_ms : 0;
  std::vector<serve::LinkResult> results;
  results.reserve(entities.size());
  // Entities are sequential: entity i is fully gathered (and persisted
  // on its owner) before entity i+1 scatters, preserving the unsharded
  // linker's intra-batch matching.
  for (const data::SpatialEntity& entity : entities) {
    const size_t global_index =
        next_index_.fetch_add(1, std::memory_order_relaxed);
    auto cancelled = std::make_shared<std::atomic<bool>>(false);
    std::vector<std::pair<size_t, std::future<ShardReply>>> pending;
    size_t failed = 0;
    {
      SKYEX_PHASE("shard/scatter", prof::Phase::kServe, &phases->scatter_us);
      const std::vector<size_t> targets =
          map_->ShardsIntersecting(entity.location, radius_m_);
      const size_t owner = map_->OwnerOf(entity.location);
      pending.reserve(targets.size());
      for (size_t s : targets) {
        ShardNode& node = *nodes_[s];
        if (!node.breaker().Admit(NowMs())) {
          ++failed;
          continue;
        }
        ShardJob job;
        job.entity = entity;
        job.global_index = global_index;
        job.persist = s == owner;
        job.cancelled = cancelled;
        std::future<ShardReply> reply = job.reply.get_future();
        if (node.TryEnqueue(std::move(job)) != serve::PushResult::kOk) {
          // Backpressure says nothing about shard health.
          node.breaker().RecordNeutral(NowMs());
          ++failed;
          continue;
        }
        pending.emplace_back(s, std::move(reply));
      }
      phases->shards_touched += static_cast<uint32_t>(targets.size());
    }

    std::vector<serve::ScoredLink> gathered;
    size_t succeeded = 0;
    {
      SKYEX_PHASE("shard/shard_link", prof::Phase::kServe,
                  &phases->shard_link_us);
      for (auto& [s, reply_future] : pending) {
        bool timed_out = false;
        if (deadline_at > 0) {
          const int64_t remaining = deadline_at - NowMs();
          timed_out =
              remaining <= 0 ||
              reply_future.wait_for(std::chrono::milliseconds(remaining)) !=
                  std::future_status::ready;
        }
        if (timed_out) {
          cancelled->store(true, std::memory_order_relaxed);
          nodes_[s]->breaker().RecordFailure(NowMs());
          SKYEX_COUNTER_INC("shard/scatter_timeouts");
          ++failed;
          continue;
        }
        ShardReply reply = reply_future.get();
        if (!reply.ok) {
          nodes_[s]->breaker().RecordFailure(NowMs());
          ++failed;
          continue;
        }
        nodes_[s]->breaker().RecordSuccess(NowMs());
        ++succeeded;
        phases->link += reply.stats;
        std::move(reply.links.begin(), reply.links.end(),
                  std::back_inserter(gathered));
      }
      phases->shards_failed += static_cast<uint32_t>(failed);
    }

    serve::LinkResult result;
    {
      SKYEX_PHASE("shard/gather", prof::Phase::kServe, &phases->gather_us);
      if (succeeded > 0 || failed == 0) {
        result = serve::RankAndMerge(entity, global_index, std::move(gathered));
      } else {
        // Every target lost: nothing to merge beyond the entity itself.
        result.record_index = global_index;
        result.merged = entity;
      }
      result.degraded = failed > 0;
      SKYEX_COUNTER_INC("serve/link_requests");
      SKYEX_COUNTER_ADD("serve/linked_records", result.links.size());
      if (result.degraded) SKYEX_COUNTER_INC("shard/degraded_results");
    }
    results.push_back(std::move(result));
  }
  return results;
}

size_t Router::record_count() const {
  size_t total = 0;
  for (const auto& node : nodes_) total += node->record_count();
  return total;
}

size_t Router::queue_depth() const {
  size_t total = 0;
  for (const auto& node : nodes_) total += node->queue_depth();
  return total;
}

bool Router::wedged() const {
  for (const auto& node : nodes_) {
    if (!node->wedged()) return false;
  }
  return true;
}

uint64_t Router::breaker_opens() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->breaker().opens();
  return total;
}

void Router::PublishGauges() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const auto& node : nodes_) {
    const std::string prefix = "shard/" + std::to_string(node->id());
    registry.GetGauge(prefix + "/queue_depth")
        .Set(static_cast<double>(node->queue_depth()));
    registry.GetGauge(prefix + "/records")
        .Set(static_cast<double>(node->record_count()));
    registry.GetGauge(prefix + "/breaker_state")
        .Set(static_cast<double>(node->breaker().state(NowMs())));
    registry.GetGauge(prefix + "/wedged").Set(node->wedged() ? 1.0 : 0.0);
  }
}

void Router::WatchdogLoop() {
  const int64_t interval = std::max<int64_t>(10, options_.watchdog_ms / 4);
  while (!stopping_.load(std::memory_order_relaxed)) {
    for (int64_t slept = 0;
         slept < interval && !stopping_.load(std::memory_order_relaxed);
         slept += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const int64_t now = NowMs();
    for (size_t s = 0; s < nodes_.size(); ++s) {
      ShardNode& node = *nodes_[s];
      const bool active = node.busy() || node.queue_depth() > 0;
      const int64_t age = now - node.heartbeat_ms();
      if (active && age > options_.watchdog_ms) {
        if (!node.wedged()) {
          node.set_wedged(true);
          SKYEX_COUNTER_INC("shard/watchdog_trips");
          SKYEX_LOG_WARN("shard/watchdog", "shard wedged", {"shard", s},
                         {"heartbeat_age_ms", age},
                         {"queue_depth", node.queue_depth()});
          node.breaker().ForceOpen(now);
          obs::FlightRecorder::Global().RecordEvent(
              "shard_wedged", "shard=" + std::to_string(s) +
                                  " heartbeat_age_ms=" + std::to_string(age));
        }
      } else if (node.wedged()) {
        node.set_wedged(false);
        SKYEX_LOG_INFO("shard/watchdog", "shard recovered", {"shard", s},
                       {"heartbeat_age_ms", age});
        obs::FlightRecorder::Global().RecordEvent(
            "shard_recovered", "shard=" + std::to_string(s));
      }
      // Surface per-shard breaker opens as flight events (the sharded
      // analogue of Server::NoteBreakerOpens, sans the stderr dump —
      // a shard storm would flood it).
      const uint64_t opens = node.breaker().opens();
      if (opens > seen_opens_[s]) {
        seen_opens_[s] = opens;
        obs::FlightRecorder::Global().RecordEvent(
            "shard_breaker_open",
            "shard=" + std::to_string(s) + " opens=" + std::to_string(opens));
      }
    }
  }
}

std::unique_ptr<Router> BootstrapRouter(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& linker_options, size_t num_shards,
    const RouterOptions& options, std::string* error) {
  const size_t initial_records = dataset.size();
  auto map = std::make_unique<ShardMap>(dataset.Points(), num_shards,
                                        options.map);
  const std::vector<std::vector<size_t>> partitions = map->Partitions();
  std::string model_text;
  std::vector<std::unique_ptr<serve::LinkService>> services =
      serve::BootstrapShardedLinkServices(std::move(dataset),
                                          std::move(model), linker_options,
                                          partitions, &model_text, error);
  if (services.empty()) return nullptr;
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.reserve(services.size());
  for (size_t s = 0; s < services.size(); ++s) {
    nodes.push_back(std::make_unique<ShardNode>(
        s, std::move(services[s]), partitions[s], options.node));
  }
  SKYEX_LOG_INFO("shard/bootstrap", "sharded backend ready",
                 {"shards", nodes.size()},
                 {"leaves", map->num_leaves()},
                 {"records", initial_records});
  return std::make_unique<Router>(std::move(map), std::move(nodes),
                                  std::move(model_text),
                                  linker_options.radius_m, initial_records,
                                  options);
}

}  // namespace skyex::shard
