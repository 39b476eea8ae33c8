#include "serve/breaker.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metrics.h"
#include "par/rng.h"

namespace skyex::serve {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options),
      outcomes_(std::max<size_t>(1, options.window), 0) {}

bool CircuitBreaker::Admit(int64_t now_ms) {
  if (!options_.enabled) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeHalfOpen(now_ms);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(int64_t now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeHalfOpen(now_ms);
  if (state_ == State::kHalfOpen) {
    // Probe succeeded: close and forget the bad window.
    state_ = State::kClosed;
    probe_in_flight_ = false;
    std::fill(outcomes_.begin(), outcomes_.end(), 0);
    filled_ = 0;
    failures_ = 0;
    next_ = 0;
    SKYEX_LOG_INFO("serve/breaker", "closed after successful probe");
    SKYEX_GAUGE_SET("serve/breaker_open", 0.0);
    return;
  }
  if (state_ != State::kClosed) return;
  failures_ -= outcomes_[next_];
  outcomes_[next_] = 0;
  next_ = (next_ + 1) % outcomes_.size();
  filled_ = std::min(filled_ + 1, outcomes_.size());
}

void CircuitBreaker::RecordFailure(int64_t now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeHalfOpen(now_ms);
  if (state_ == State::kHalfOpen) {
    probe_in_flight_ = false;
    Open(now_ms);
    return;
  }
  if (state_ != State::kClosed) return;
  failures_ -= outcomes_[next_];
  outcomes_[next_] = 1;
  failures_ += 1;
  next_ = (next_ + 1) % outcomes_.size();
  filled_ = std::min(filled_ + 1, outcomes_.size());
  if (filled_ >= options_.min_samples &&
      static_cast<double>(failures_) >=
          options_.failure_threshold * static_cast<double>(filled_)) {
    Open(now_ms);
  }
}

void CircuitBreaker::RecordNeutral(int64_t now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeHalfOpen(now_ms);
  if (state_ == State::kHalfOpen) probe_in_flight_ = false;
}

void CircuitBreaker::ForceOpen(int64_t now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  probe_in_flight_ = false;
  Open(now_ms);
}

CircuitBreaker::State CircuitBreaker::state(int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeHalfOpen(now_ms);
  return state_;
}

int CircuitBreaker::RetryAfterSeconds() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int range = std::max(1, options_.max_retry_after_s);
  const uint64_t r = par::SplitMix64(options_.seed ^ ++jitter_counter_);
  return 1 + static_cast<int>(r % static_cast<uint64_t>(range));
}

uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opens_;
}

void CircuitBreaker::Open(int64_t now_ms) {
  if (state_ != State::kOpen) {
    ++opens_;
    SKYEX_COUNTER_INC("serve/breaker_opens");
    SKYEX_LOG_WARN("serve/breaker", "breaker opened",
                   {"failures", failures_}, {"window", filled_});
  }
  state_ = State::kOpen;
  opened_at_ms_ = now_ms;
  SKYEX_GAUGE_SET("serve/breaker_open", 1.0);
}

void CircuitBreaker::MaybeHalfOpen(int64_t now_ms) {
  if (state_ == State::kOpen &&
      now_ms - opened_at_ms_ >= options_.open_ms) {
    state_ = State::kHalfOpen;
    probe_in_flight_ = false;
  }
}

}  // namespace skyex::serve
