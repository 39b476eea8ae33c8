#include "shard/node.h"

#include <chrono>
#include <utility>

#include "fault/fault.h"
#include "obs/context.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/prof.h"

namespace skyex::shard {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<double>& BatchSizeBuckets() {
  static const std::vector<double>* buckets = new std::vector<double>{
      1, 2, 4, 8, 16, 32, 64, 128, 256};
  return *buckets;
}

bool Cancelled(const ShardJob& job) {
  return job.cancelled != nullptr &&
         job.cancelled->load(std::memory_order_relaxed);
}

}  // namespace

ShardNode::ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
                     ShardNodeOptions options)
    : id_(id),
      service_(std::move(service)),
      options_(options),
      queue_(options.queue_capacity),
      breaker_(options.breaker),
      heartbeat_ms_(NowMs()),
      stall_point_("shard." + std::to_string(id) + ".stall"),
      error_point_("shard." + std::to_string(id) + ".error") {}

ShardNode::~ShardNode() { Stop(); }

void ShardNode::Start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ShardNode::Stop() {
  if (!started_) return;
  queue_.Close();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

serve::PushResult ShardNode::TryEnqueue(ShardJob job) {
  return queue_.TryPush(std::move(job));
}

void ShardNode::Loop() {
  std::vector<ShardJob> batch;
  while (queue_.PopBatch(
      &batch, std::chrono::microseconds(options_.batch_window_us),
      options_.max_batch)) {
    const double pop_us = obs::TraceNowUs();
    // Node glue samples as shard work; the linking pass re-tags itself.
    SKYEX_PROF_PHASE(::skyex::prof::Phase::kShard);
    busy_.store(true, std::memory_order_relaxed);
    heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    std::vector<ShardReply> replies(batch.size());
    double batch_wait_us = 0.0;
    uint32_t entities = 0;
    {
      SKYEX_PHASE("serve/batch_assembly", prof::Phase::kServe,
                  &batch_wait_us);
      // Injected wedge: the stall happens while busy with the heartbeat
      // frozen, exactly what a deadlocked or livelocked linker looks
      // like to the watchdog.
      fault::FaultAction stall;
      if (SKYEX_FAULT_FIRE("linker.stall", &stall)) {
        SKYEX_LOG_WARN("shard/node", "injected stall", {"shard", id_},
                       {"ms", stall.ms});
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(stall.ms));
      }
      for (size_t j = 0; j < batch.size(); ++j) {
        if (Cancelled(batch[j])) continue;  // skipped in Process
        replies[j].queue_wait_us = pop_us - batch[j].enqueue_us;
        SKYEX_HISTOGRAM_OBSERVE_US("serve/queue_wait_us",
                                   replies[j].queue_wait_us);
        entities += static_cast<uint32_t>(batch[j].tasks.size());
      }
      SKYEX_HISTOGRAM_OBSERVE("serve/batch_size",
                              static_cast<double>(entities),
                              BatchSizeBuckets());
    }
    for (size_t j = 0; j < batch.size(); ++j) {
      heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
      replies[j].batch_wait_us = batch_wait_us;
      replies[j].batch_size = entities;
      Process(batch[j], &replies[j]);
    }
    // Reply once the whole batch is linked, as one linker pass does:
    // staggered replies stagger the clients' next requests, and each
    // straggler then waits out the rest of this batch and a linger of
    // its own.
    for (size_t j = 0; j < batch.size(); ++j) {
      batch[j].reply.set_value(std::move(replies[j]));
    }
    heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    busy_.store(false, std::memory_order_relaxed);
  }
}

void ShardNode::Process(const ShardJob& job, ShardReply* reply) {
  obs::ScopedTraceContext context_scope(obs::TraceContext{job.request_id, 0});
  fault::FaultAction action;
  // Chaos hooks: a stall holds this shard's worker (the router's
  // deadline and breaker must cope), an error fails the job outright.
  if (SKYEX_FAULT_FIRE("shard.stall", &action) ||
      SKYEX_FAULT_FIRE(stall_point_.c_str(), &action)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(action.ms * 1000.0)));
  }
  if (SKYEX_FAULT_FIRE("shard.error", nullptr) ||
      SKYEX_FAULT_FIRE(error_point_.c_str(), nullptr)) {
    SKYEX_COUNTER_INC("shard/job_errors");
    *reply = ShardReply{};  // ok = false
    return;
  }
  if (Cancelled(job)) {
    // The router gave up on this job; skip the work AND the persist, so
    // no record index is taken.
    SKYEX_COUNTER_INC("shard/jobs_cancelled");
    *reply = ShardReply{};  // ok = false
    return;
  }
  const std::vector<data::SpatialEntity>& entities = *job.entities;
  reply->links.reserve(job.tasks.size());
  reply->record_index.assign(job.tasks.size(), 0);
  {
    // Base tag for the linking pass: acceptance + golden-record time
    // samples as ranking; candidate scan and feature extraction re-tag
    // themselves inside (core/incremental.cc).
    SKYEX_PROF_PHASE(::skyex::prof::Phase::kRanking);
    for (size_t t = 0; t < job.tasks.size(); ++t) {
      const ShardTask& task = job.tasks[t];
      reply->links.push_back(service_->MatchScored(
          entities[task.entity], task.persist, &reply->stats,
          &reply->record_index[t]));
    }
  }
  reply->ok = true;
  SKYEX_COUNTER_INC("shard/jobs_done");
}

}  // namespace skyex::shard
