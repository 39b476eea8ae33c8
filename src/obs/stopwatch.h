#ifndef SKYEX_OBS_STOPWATCH_H_
#define SKYEX_OBS_STOPWATCH_H_

#include <chrono>

namespace skyex::obs {

/// Wall-clock stopwatch. For pipeline stages prefer SKYEX_SPAN, which
/// feeds the trace collector and nests.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace skyex::obs

#endif  // SKYEX_OBS_STOPWATCH_H_
