#ifndef SKYEX_SERVE_BREAKER_H_
#define SKYEX_SERVE_BREAKER_H_

// Circuit breaker around a shard's linker: when the recent job failure
// rate (deadline expiries, shard faults, watchdog trips) blows the
// budget, the breaker opens and the shard refuses jobs; a request every
// target refuses is shed with 503 + a *jittered* Retry-After —
// deterministic backoff would herd every shed client back in the same
// instant. After `open_ms` the breaker admits a single half-open probe;
// its outcome decides between closing again and another open period.

#include <cstdint>
#include <mutex>
#include <vector>

namespace skyex::serve {

struct CircuitBreakerOptions {
  bool enabled = true;
  size_t window = 64;              // sliding window of job outcomes
  size_t min_samples = 8;          // no verdict before this many
  double failure_threshold = 0.5;  // open at >= this failure rate
  int open_ms = 1000;              // open duration before the probe
  int max_retry_after_s = 4;       // jitter range of Retry-After
  uint64_t seed = 0x5eedb4ea;      // jitter RNG stream
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  /// Admission check at `now_ms` (a steady-clock reading). False means
  /// shed this request. In the half-open state exactly one caller wins
  /// the probe slot; everyone else is shed until its outcome lands.
  bool Admit(int64_t now_ms);

  /// Outcome of an admitted link job.
  void RecordSuccess(int64_t now_ms);
  void RecordFailure(int64_t now_ms);

  /// Outcome that says nothing about linker health (e.g. 429
  /// backpressure after admission): releases a half-open probe slot
  /// without closing or reopening, and leaves the window untouched.
  void RecordNeutral(int64_t now_ms);

  /// Forces the breaker open (the watchdog's wedged-linker signal).
  void ForceOpen(int64_t now_ms);

  State state(int64_t now_ms);

  /// Full-jittered Retry-After in seconds: uniform in
  /// [1, max_retry_after_s], deterministic in the breaker's seed and
  /// shed count.
  int RetryAfterSeconds();

  /// Times the breaker transitioned Closed/HalfOpen -> Open.
  uint64_t opens() const;

 private:
  void Open(int64_t now_ms);          // mutex held
  void MaybeHalfOpen(int64_t now_ms); // mutex held

  CircuitBreakerOptions options_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  std::vector<uint8_t> outcomes_;  // ring buffer: 1 = failure
  size_t next_ = 0;
  size_t filled_ = 0;
  size_t failures_ = 0;
  int64_t opened_at_ms_ = 0;
  bool probe_in_flight_ = false;
  uint64_t opens_ = 0;
  uint64_t jitter_counter_ = 0;
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_BREAKER_H_
