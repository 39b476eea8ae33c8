#include "shard/node.h"

#include <chrono>
#include <utility>

#include "fault/fault.h"
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

ShardNode::ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
                     std::vector<size_t> global_of_local,
                     ShardNodeOptions options)
    : id_(id),
      service_(std::move(service)),
      global_of_local_(std::move(global_of_local)),
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
    SKYEX_PROF_PHASE(::skyex::prof::Phase::kShard);
    busy_.store(true, std::memory_order_relaxed);
    for (ShardJob& job : batch) {
      heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
      Process(job);
    }
    heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    busy_.store(false, std::memory_order_relaxed);
  }
}

void ShardNode::Process(ShardJob& job) {
  ShardReply reply;
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
    job.reply.set_value(std::move(reply));  // ok = false
    return;
  }
  if (job.cancelled != nullptr &&
      job.cancelled->load(std::memory_order_relaxed)) {
    // The router gave up on this entity; skip the work AND the persist
    // (the global index stays burned — see docs/serving.md).
    SKYEX_COUNTER_INC("shard/jobs_cancelled");
    job.reply.set_value(std::move(reply));  // ok = false
    return;
  }
  reply.links = service_->MatchScored(job.entity, job.persist, &reply.stats);
  if (job.persist) global_of_local_.push_back(job.global_index);
  // Report in global indices: the router and clients never see local
  // shard positions.
  for (serve::ScoredLink& link : reply.links) {
    link.record = global_of_local_[link.record];
  }
  reply.ok = true;
  SKYEX_COUNTER_INC("shard/jobs_done");
  job.reply.set_value(std::move(reply));
}

}  // namespace skyex::shard
