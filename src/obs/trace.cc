#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <sstream>

namespace skyex::obs {

namespace {

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

double SinceEpochUs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - ProcessEpoch())
      .count();
}

}  // namespace

double TraceNowUs() { return SinceEpochUs(std::chrono::steady_clock::now()); }

/// Per-thread buffer. Registers with the collector on first span and
/// hands its events over when the thread exits. Appends and snapshot
/// reads are serialized by a per-buffer mutex; the lock is uncontended
/// except while another thread is exporting.
struct ThreadTraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  uint32_t tid = 0;
  uint32_t depth = 0;

  ThreadTraceBuffer();
  ~ThreadTraceBuffer();
};

struct TraceCollector::Impl {
  mutable std::mutex mutex;
  std::vector<ThreadTraceBuffer*> live;   // registered thread buffers
  std::vector<TraceEvent> retired;        // events of exited threads
  uint32_t next_tid = 1;
};

namespace {

ThreadTraceBuffer& LocalBuffer() {
  thread_local ThreadTraceBuffer buffer;
  return buffer;
}

}  // namespace

TraceCollector::TraceCollector() : impl_(new Impl) { ProcessEpoch(); }
TraceCollector::~TraceCollector() { delete impl_; }

TraceCollector& TraceCollector::Global() {
  // Leaked: thread buffers deregister in thread_local destructors, which
  // may run after main() returns.
  static TraceCollector* global = new TraceCollector;
  return *global;
}

ThreadTraceBuffer::ThreadTraceBuffer() {
  auto* impl = TraceCollector::Global().impl_;
  std::lock_guard<std::mutex> lock(impl->mutex);
  tid = impl->next_tid++;
  impl->live.push_back(this);
}

ThreadTraceBuffer::~ThreadTraceBuffer() {
  auto* impl = TraceCollector::Global().impl_;
  std::lock_guard<std::mutex> lock(impl->mutex);
  impl->live.erase(std::remove(impl->live.begin(), impl->live.end(), this),
                   impl->live.end());
  impl->retired.insert(impl->retired.end(), events.begin(), events.end());
}

void TraceCollector::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceCollector::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->retired.clear();
  for (ThreadTraceBuffer* buffer : impl_->live) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->retired;
    for (ThreadTraceBuffer* buffer : impl_->live) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.depth < b.depth;  // parent before child on ties
            });
  return out;
}

std::map<std::string, SpanStat> TraceCollector::Aggregate() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::map<std::string, SpanStat> stats;
  // child_us[i]: summed duration of event i's direct children,
  // reconstructed per thread with a containment stack over the
  // ts-sorted events.
  std::vector<double> child_us(events.size(), 0.0);
  std::map<uint32_t, std::vector<size_t>> stack_by_tid;
  for (size_t i = 0; i < events.size(); ++i) {
    auto& stack = stack_by_tid[events[i].tid];
    while (!stack.empty()) {
      const TraceEvent& top = events[stack.back()];
      if (events[i].ts_us < top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += events[i].dur_us;
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    SpanStat& s = stats[events[i].name];
    ++s.count;
    s.total_us += events[i].dur_us;
    s.self_us += events[i].dur_us - child_us[i];
  }
  return stats;
}

void TraceCollector::WriteChromeTrace(std::ostream& out) const {
  WriteChromeTraceEvents(out, Snapshot());
}

void WriteChromeTraceEvents(std::ostream& out,
                            const std::vector<TraceEvent>& events) {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  char line[256];
  for (const TraceEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"skyex\", "
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %" PRIu32
                  ", \"args\": {\"depth\": %" PRIu32 "}}",
                  first ? "" : ",", e.name, e.ts_us, e.dur_us, e.tid,
                  e.depth);
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

std::string TraceCollector::SummaryTable() const {
  const auto stats = Aggregate();
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-36s %10s %14s %14s %12s\n", "span",
                "count", "total (ms)", "self (ms)", "mean (ms)");
  out << line;
  for (const auto& [name, s] : stats) {
    std::snprintf(line, sizeof(line), "%-36s %10" PRIu64
                  " %14.3f %14.3f %12.3f\n",
                  name.c_str(), s.count, s.total_us / 1e3, s.self_us / 1e3,
                  s.total_us / 1e3 / static_cast<double>(s.count));
    out << line;
  }
  return out.str();
}

ScopedSpan::ScopedSpan(const char* name, double* sink_us)
    : name_(name),
      sink_us_(sink_us),
      active_(TraceCollector::Global().enabled()) {
  if (active_) ++LocalBuffer().depth;
  if (active_ || sink_us_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_ && sink_us_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start_).count();
  if (sink_us_ != nullptr) *sink_us_ += dur_us;
  if (!active_) return;
  ThreadTraceBuffer& buffer = LocalBuffer();
  TraceEvent event;
  event.name = name_;
  event.ts_us = SinceEpochUs(start_);
  event.dur_us = dur_us;
  event.tid = buffer.tid;
  event.depth = --buffer.depth;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(event);
}

}  // namespace skyex::obs
