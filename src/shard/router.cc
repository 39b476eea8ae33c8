#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <iterator>
#include <optional>
#include <utility>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/prof.h"
#include "quality/quality.h"

namespace skyex::shard {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Router::Router(std::unique_ptr<ShardMap> map,
               std::vector<std::unique_ptr<serve::LinkService>> services,
               const std::vector<std::vector<size_t>>& partitions,
               std::string model_text, double radius_m,
               size_t initial_records, RouterOptions options)
    : map_(std::move(map)),
      next_index_(initial_records),
      model_text_(std::move(model_text)),
      radius_m_(radius_m),
      options_(options),
      reported_opens_(services.size()) {
  nodes_.reserve(services.size());
  for (size_t s = 0; s < services.size(); ++s) {
    services[s]->ShareIndexSpace(partitions[s], &next_index_);
    nodes_.push_back(std::make_unique<ShardNode>(s, std::move(services[s]),
                                                 options.node));
  }
}

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

namespace {

// What became of one target shard's job.
enum class Outcome { kPending, kAnswered, kLost, kFailed, kRefused };

// One shard a request touches: its tasks, its job's reply, its fate.
struct Target {
  size_t shard = 0;
  std::vector<ShardTask> tasks;
  Outcome outcome = Outcome::kPending;
  bool full = false;  // refused for a full queue
  std::shared_ptr<std::atomic<bool>> cancelled;
  std::future<ShardReply> future;
  ShardReply reply;
};

// One entity's gathered answer.
struct Gathered {
  std::vector<serve::ScoredLink> links;       // answered shards
  std::vector<serve::LinkedRecord> degraded;  // lost shards' fallback
  bool answered = false;  // some target answered
  bool complete = true;   // every target answered
  std::optional<size_t> record_index;  // where the owner persisted it
};

}  // namespace

serve::LinkAnswer Router::Link(serve::LinkRequest request,
                               obs::RequestTimeline* timeline) {
  const auto entities =
      std::make_shared<const std::vector<data::SpatialEntity>>(
          std::move(request.entities));
  const size_t n = entities->size();
  std::vector<size_t> owner(n);
  std::vector<Target> targets;
  {
    SKYEX_PHASE("shard/scatter", prof::Phase::kServe, &timeline->scatter_us);
    std::vector<size_t> slot(nodes_.size(), SIZE_MAX);
    for (size_t i = 0; i < n; ++i) {
      const geo::GeoPoint& p = (*entities)[i].location;
      owner[i] = map_->OwnerOf(p);
      for (size_t s : map_->ShardsIntersecting(p, radius_m_)) {
        if (slot[s] == SIZE_MAX) {
          slot[s] = targets.size();
          targets.emplace_back().shard = s;
        }
        targets[slot[s]].tasks.push_back(ShardTask{i, s == owner[i]});
      }
    }
    const int64_t now = NowMs();
    for (Target& t : targets) {
      ShardNode& node = *nodes_[t.shard];
      // A wedged shard cannot serve the full path; don't queue work that
      // would only expire. The watchdog clears the mark on recovery.
      if (node.wedged()) {
        t.outcome = Outcome::kLost;
        continue;
      }
      t.outcome = Outcome::kRefused;
      if (!node.breaker().Admit(now)) continue;
      ShardJob job{entities, t.tasks, obs::TraceNowUs(), timeline->request_id,
                   std::make_shared<std::atomic<bool>>(false), {}};
      t.cancelled = job.cancelled;
      t.future = job.reply.get_future();
      const serve::PushResult pushed = node.TryEnqueue(std::move(job));
      if (pushed == serve::PushResult::kOk) {
        t.outcome = Outcome::kPending;
        continue;
      }
      // Backpressure says nothing about shard health: release a
      // half-open probe slot without biasing the breaker window.
      node.breaker().RecordNeutral(now);
      t.full = pushed == serve::PushResult::kFull;
    }
    timeline->shards_touched = static_cast<uint32_t>(targets.size());
  }

  serve::LinkAnswer answer;
  const auto refused = [](const Target& t) {
    return t.outcome == Outcome::kRefused;
  };
  if (std::all_of(targets.begin(), targets.end(), refused)) {
    timeline->shards_failed = static_cast<uint32_t>(targets.size());
    const auto open = std::find_if(targets.begin(), targets.end(),
                                   [](const Target& t) { return !t.full; });
    answer.status = open == targets.end() ? serve::LinkStatus::kQueueFull
                                          : serve::LinkStatus::kRefused;
    if (open != targets.end()) {
      answer.retry_after_s = nodes_[open->shard]->breaker().RetryAfterSeconds();
    }
    return answer;
  }

  {
    SKYEX_PHASE("shard/shard_link", prof::Phase::kServe,
                &timeline->shard_link_us);
    const bool bounded =
        request.deadline != std::chrono::steady_clock::time_point::max();
    for (Target& t : targets) {
      if (t.outcome != Outcome::kPending) continue;
      // A reply already in hand counts as answered, however late.
      if (bounded && t.future.wait_until(request.deadline) !=
                         std::future_status::ready) {
        t.cancelled->store(true, std::memory_order_relaxed);
        t.outcome = Outcome::kLost;
        answer.deadline_expired = true;
        SKYEX_COUNTER_INC("shard/scatter_timeouts");
      } else if (!(t.reply = t.future.get()).ok) {
        t.outcome = Outcome::kFailed;
      } else {
        t.outcome = Outcome::kAnswered;
        timeline->link += t.reply.stats;
        timeline->queue_wait_us =
            std::max(timeline->queue_wait_us, t.reply.queue_wait_us);
        timeline->batch_wait_us =
            std::max(timeline->batch_wait_us, t.reply.batch_wait_us);
        timeline->batch_size =
            std::max(timeline->batch_size, t.reply.batch_size);
      }
      serve::CircuitBreaker& breaker = nodes_[t.shard]->breaker();
      if (t.outcome == Outcome::kAnswered) {
        breaker.RecordSuccess(NowMs());
      } else {
        breaker.RecordFailure(NowMs());
        NoteBreakerOpens(t.shard);
      }
    }
  }
  const Target* lost = nullptr;
  for (const Target& t : targets) {
    if (t.outcome != Outcome::kAnswered) ++timeline->shards_failed;
    if (t.outcome == Outcome::kLost && lost == nullptr) lost = &t;
  }
  if (lost != nullptr && !request.degraded_fallback) {
    answer.status = serve::LinkStatus::kLost;
    answer.retry_after_s = nodes_[lost->shard]->breaker().RetryAfterSeconds();
    return answer;
  }

  SKYEX_PHASE("shard/gather", prof::Phase::kServe, &timeline->gather_us);
  std::vector<Gathered> gathered(n);
  for (Target& t : targets) {
    std::vector<serve::LinkResult> fallback;
    if (t.outcome == Outcome::kLost) {
      // The shard's degraded matches, read under its records lock.
      std::vector<data::SpatialEntity> lost_entities;
      for (const ShardTask& task : t.tasks) {
        lost_entities.push_back((*entities)[task.entity]);
      }
      fallback = nodes_[t.shard]->service().LinkDegraded(lost_entities);
    }
    for (size_t k = 0; k < t.tasks.size(); ++k) {
      Gathered& g = gathered[t.tasks[k].entity];
      if (t.outcome != Outcome::kAnswered) {
        // Refused and failed shards contribute nothing.
        g.complete = false;
        if (!fallback.empty()) {
          std::move(fallback[k].links.begin(), fallback[k].links.end(),
                    std::back_inserter(g.degraded));
        }
        continue;
      }
      g.answered = true;
      std::move(t.reply.links[k].begin(), t.reply.links[k].end(),
                std::back_inserter(g.links));
      if (t.tasks[k].persist) g.record_index = t.reply.record_index[k];
    }
  }
  // Where an entity its owner did not persist would have landed.
  const size_t would_land = next_index_.load(std::memory_order_relaxed);
  quality::Runtime& quality_runtime = quality::Runtime::Global();
  answer.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const data::SpatialEntity& entity = (*entities)[i];
    Gathered& g = gathered[i];
    if (!g.record_index.has_value()) {
      // The owner's MatchScored observes what it persists; the rest
      // audit as decision-less records, observed once here.
      quality_runtime.ObserveEntity(entity);
      if (quality_runtime.ShouldCapture()) {
        quality_runtime.RecordDegraded(entity, static_cast<uint32_t>(owner[i]));
      }
    }
    const size_t index = g.record_index.value_or(would_land);
    serve::LinkResult result;
    if (g.answered) {
      result = serve::RankAndMerge(entity, index, std::move(g.links));
    } else {
      // No target answered: nothing to merge beyond the entity itself.
      result.record_index = index;
      result.merged = entity;
    }
    std::sort(g.degraded.begin(), g.degraded.end(),
              [](const serve::LinkedRecord& a, const serve::LinkedRecord& b) {
                return a.record < b.record;
              });
    std::move(g.degraded.begin(), g.degraded.end(),
              std::back_inserter(result.links));
    result.degraded = !g.complete;
    SKYEX_COUNTER_INC("serve/link_requests");
    SKYEX_COUNTER_ADD("serve/linked_records", result.links.size());
    if (result.degraded) SKYEX_COUNTER_INC("shard/degraded_results");
    answer.results.push_back(std::move(result));
  }
  return answer;
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

const char* Router::breaker_state() const {
  const int64_t now = NowMs();
  const char* state = "closed";
  for (const auto& node : nodes_) {
    switch (node->breaker().state(now)) {
      case serve::CircuitBreaker::State::kOpen:
        return "open";
      case serve::CircuitBreaker::State::kHalfOpen:
        state = "half_open";
        break;
      case serve::CircuitBreaker::State::kClosed:
        break;
    }
  }
  return state;
}

uint64_t Router::breaker_opens() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->breaker().opens();
  return total;
}

void Router::PublishGauges() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve/queue_depth")
      .Set(static_cast<double>(queue_depth()));
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

void Router::NoteBreakerOpens(size_t s) {
  const uint64_t opens = nodes_[s]->breaker().opens();
  uint64_t seen = reported_opens_[s].load(std::memory_order_relaxed);
  while (seen < opens) {
    if (reported_opens_[s].compare_exchange_weak(
            seen, opens, std::memory_order_relaxed)) {
      obs::FlightRecorder::Global().RecordEvent(
          "breaker_open",
          "shard=" + std::to_string(s) + " opens=" + std::to_string(opens));
      obs::FlightRecorder::Global().DumpToStderr("breaker_open");
      return;
    }
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
          watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
          SKYEX_COUNTER_INC("shard/watchdog_trips");
          SKYEX_LOG_WARN("shard/watchdog", "shard wedged", {"shard", s},
                         {"heartbeat_age_ms", age},
                         {"queue_depth", node.queue_depth()});
          node.breaker().ForceOpen(now);
          obs::FlightRecorder::Global().RecordEvent(
              "watchdog_trip",
              "shard=" + std::to_string(s) +
                  " heartbeat_age_ms=" + std::to_string(age) +
                  " queue_depth=" + std::to_string(node.queue_depth()));
          obs::FlightRecorder::Global().DumpToStderr("watchdog_trip");
          NoteBreakerOpens(s);
        }
      } else if (node.wedged()) {
        node.set_wedged(false);
        SKYEX_LOG_INFO("shard/watchdog", "shard recovered", {"shard", s},
                       {"heartbeat_age_ms", age});
        obs::FlightRecorder::Global().RecordEvent(
            "shard_recovered", "shard=" + std::to_string(s));
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
  SKYEX_LOG_INFO("shard/bootstrap", "serving backend ready",
                 {"shards", services.size()},
                 {"leaves", map->num_leaves()},
                 {"records", initial_records});
  return std::make_unique<Router>(std::move(map), std::move(services),
                                  partitions, std::move(model_text),
                                  linker_options.radius_m, initial_records,
                                  options);
}

}  // namespace skyex::shard
