#ifndef SKYEX_SERVE_QUEUE_H_
#define SKYEX_SERVE_QUEUE_H_

// Bounded MPSC/MPMC queue with batch draining — the admission-control
// core of the serving layer. Producers never block: a full queue is an
// immediate kFull (the caller turns it into 429 + Retry-After). The
// consumer blocks for work, then lingers until the oldest queued item
// has waited a micro-batching window, so closely-spaced requests
// coalesce into one drain and an item that already waited behind the
// previous drain does not wait a whole window more.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace skyex::serve {

enum class PushResult { kOk, kFull, kClosed };

template <typename T>
class BatchQueue {
 public:
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

  /// Non-blocking admission; kFull when `capacity` items are queued.
  PushResult TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back({std::move(item), std::chrono::steady_clock::now()});
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until at least one item is available, then waits for more
  /// until the oldest queued item was pushed `batch_window` ago (at once
  /// when it already was), and moves up to `max_batch` items into `out`
  /// (cleared first). Returns false only when the queue is closed and
  /// fully drained.
  bool PopBatch(std::vector<T>* out, std::chrono::microseconds batch_window,
                size_t max_batch) {
    out->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;  // closed and drained
    if (batch_window.count() > 0 && !closed_) {
      // Linger out the oldest item's coalescing window (or until the
      // batch is full).
      cv_.wait_until(lock, items_.front().pushed + batch_window,
                     [this, max_batch] {
                       return items_.size() >= max_batch || closed_;
                     });
    }
    const size_t take = max_batch == 0
                            ? items_.size()
                            : std::min(items_.size(), max_batch);
    out->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(items_.front().item));
      items_.pop_front();
    }
    return true;
  }

  /// Rejects future pushes; queued items remain poppable (drain).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  struct Queued {
    T item;
    std::chrono::steady_clock::time_point pushed;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Queued> items_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_QUEUE_H_
