#ifndef SKYEX_OBS_TRACE_H_
#define SKYEX_OBS_TRACE_H_

// RAII scoped spans feeding per-thread trace buffers, merged by a global
// collector. Traces export as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps) loadable in about://tracing and
// https://ui.perfetto.dev, or as an aggregated plain-text summary.
//
// Tracing is off by default: a span site costs one relaxed atomic load.
// Call TraceCollector::Global().SetEnabled(true) (the CLI does this when
// --trace-out is given) to start recording. Span names must be string
// literals (or otherwise outlive the collector) and follow the
// `subsystem/verb_noun` convention.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace skyex::obs {

/// One completed span. `ts_us` is microseconds since the collector
/// epoch (first use in the process); `depth` is the nesting level on its
/// thread (0 = outermost).
struct TraceEvent {
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  uint32_t depth = 0;
};

/// Aggregated view of one span name.
struct SpanStat {
  uint64_t count = 0;
  double total_us = 0.0;  // wall time inside the span
  double self_us = 0.0;   // total minus direct children
};

class TraceCollector {
 public:
  static TraceCollector& Global();

  /// Starts/stops recording. Spans opened while disabled record nothing.
  void SetEnabled(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every buffered event (live thread buffers and retired ones).
  /// Safe to call while worker threads are recording spans: an event
  /// whose span completes concurrently with the Reset may survive it
  /// (it is either cleared or appended atomically, never torn).
  void Reset();

  /// Merged copy of all completed spans, sorted by start time. Safe to
  /// call at any time, including while worker threads are actively
  /// recording: each per-thread buffer is copied under its own mutex,
  /// so the result is a consistent prefix of every thread's stream.
  /// Spans still open at snapshot time are not included (only
  /// completed spans are ever buffered). No quiescence is required —
  /// /debug/trace snapshots while the pool and linker run.
  std::vector<TraceEvent> Snapshot() const;

  /// Per-name aggregation of Snapshot().
  std::map<std::string, SpanStat> Aggregate() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}) of Snapshot().
  void WriteChromeTrace(std::ostream& out) const;

  /// Fixed-width per-span summary (count, total, self, mean).
  std::string SummaryTable() const;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

 private:
  friend class ScopedSpan;
  friend struct ThreadTraceBuffer;
  TraceCollector();
  ~TraceCollector();

  std::atomic<bool> enabled_{false};
  struct Impl;
  Impl* impl_;
};

/// RAII span: records a TraceEvent on the current thread's buffer when
/// destroyed, if tracing was enabled at construction. A non-null
/// `sink_us` also receives the span's wall time in microseconds (added,
/// never assigned), traced or not. The clock is read only when tracing
/// is on or a sink is given. Prefer the SKYEX_SPAN macro, or
/// SKYEX_PHASE (prof/prof.h) for a timed phase, over direct use.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double* sink_us = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  double* sink_us_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

/// Chrome trace-event JSON for an explicit event list (e.g. a
/// Snapshot() filtered to a time window, as /debug/trace does).
void WriteChromeTraceEvents(std::ostream& out,
                            const std::vector<TraceEvent>& events);

/// Microseconds since the collector epoch (shared clock of all spans).
double TraceNowUs();

/// Wall-clock stopwatch (successor of skyex::eval::Stopwatch); see
/// obs/stopwatch.h for the definition.

}  // namespace skyex::obs

#define SKYEX_OBS_CONCAT_INNER(a, b) a##b
#define SKYEX_OBS_CONCAT(a, b) SKYEX_OBS_CONCAT_INNER(a, b)
#define SKYEX_SPAN(name) \
  ::skyex::obs::ScopedSpan SKYEX_OBS_CONCAT(skyex_obs_span_, __LINE__)(name)

#endif  // SKYEX_OBS_TRACE_H_
