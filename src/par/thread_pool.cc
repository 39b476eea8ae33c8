#include "par/thread_pool.h"

#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "prof/prof.h"

namespace skyex::par {

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t threads)
    : threads_(threads == 0 ? HardwareThreads() : threads) {
  const size_t num_workers = threads_ - 1;
  queues_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this, i);
  }
  SKYEX_GAUGE_SET("par/pool_threads", static_cast<double>(threads_));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

namespace {

std::mutex& GlobalPoolMutex() {
  static std::mutex mutex;
  return mutex;
}

// Leaked so TaskGroups in static destructors never touch a dead pool.
ThreadPool*& GlobalPoolSlot() {
  static ThreadPool* pool = nullptr;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  ThreadPool*& slot = GlobalPoolSlot();
  if (slot == nullptr) slot = new ThreadPool();
  return *slot;
}

void ThreadPool::SetGlobalThreads(size_t threads) {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  ThreadPool*& slot = GlobalPoolSlot();
  const size_t want = threads == 0 ? HardwareThreads() : threads;
  if (slot != nullptr && slot->threads() == want) return;
  delete slot;  // joins the old workers; requires an idle pool
  slot = new ThreadPool(want);
}

void ThreadPool::Submit(Task task) {
  // 1-thread pool (or a group bound to no pool): inline execution on
  // the submitting thread keeps submission order — the serial behavior.
  if (queues_.empty()) {
    Execute(task);
    return;
  }
  const size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  const size_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  SKYEX_GAUGE_SET("par/queue_depth", static_cast<double>(depth));
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::TryPop(size_t home, Task* out) {
  const size_t n = queues_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t q = (home + k) % n;
    Worker& worker = *queues_[q];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.tasks.empty()) continue;
    if (k == 0 && home < n) {
      *out = std::move(worker.tasks.front());
      worker.tasks.pop_front();
    } else {
      // Stealing takes the opposite end to reduce contention with the
      // owner and to grab the chunk the owner would reach last.
      *out = std::move(worker.tasks.back());
      worker.tasks.pop_back();
      SKYEX_COUNTER_INC("par/steals");
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::Execute(Task& task) {
  const obs::Stopwatch watch;
  task.fn();
  SKYEX_HISTOGRAM_OBSERVE_US("par/task_latency_us", watch.ElapsedMicros());
  SKYEX_COUNTER_INC("par/tasks_executed");
  TaskGroup* group = task.group;
  if (group != nullptr) {
    // Decrement under the group mutex: a waiter that observes zero and
    // then acquires the mutex knows this completer has left the group,
    // so the group (and its condvar) can be destroyed safely.
    std::lock_guard<std::mutex> lock(group->mutex_);
    if (group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group->done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  // Workers opt into CPU-time sampling up front, so a profiler started
  // at any later point sees every pool thread.
  prof::CpuProfiler::Global().RegisterCurrentThread();
  for (;;) {
    Task task;
    if (TryPop(index, &task)) {
      Execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_ && queued_.load(std::memory_order_relaxed) == 0) return;
  }
}

ThreadPool::TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &ThreadPool::Global()) {}

ThreadPool::TaskGroup::~TaskGroup() { Wait(); }

void ThreadPool::TaskGroup::Run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  // Capture the submitter's trace context and profiler phase so request
  // ids and sample attribution follow work across the pool boundary
  // (ParallelFor/Map/Reduce all funnel their non-caller chunks through
  // here). The caller-run chunk and the 1-thread inline path inherit
  // both naturally.
  const obs::TraceContext ctx = obs::CurrentContext();
  const prof::Phase phase = prof::CurrentPhase();
  if (ctx.valid() || phase != prof::Phase::kUntagged) {
    pool_->Submit(Task{[ctx, phase, fn = std::move(fn)] {
                         obs::ScopedTraceContext scope(ctx);
                         prof::PhaseScope phase_scope(phase);
                         fn();
                       },
                       this});
  } else {
    pool_->Submit(Task{std::move(fn), this});
  }
}

void ThreadPool::TaskGroup::Wait() {
  // Help: drain pool tasks (not necessarily this group's) until our own
  // count hits zero. Running foreign tasks while waiting is what makes
  // nested parallel sections safe on a saturated pool.
  const size_t external = pool_->queues_.size();  // no own deque
  while (pending_.load(std::memory_order_acquire) > 0) {
    Task task;
    if (pool_->TryPop(external, &task)) {
      pool_->Execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  // Rendezvous with the last completer: it decrements under mutex_, so
  // taking the mutex once more guarantees it is done touching us.
  std::lock_guard<std::mutex> lock(mutex_);
}

}  // namespace skyex::par
