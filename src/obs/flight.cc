#include "obs/flight.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/context.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace skyex::obs {
namespace {

void CopyTruncated(char* dst, std::size_t dst_size, std::string_view src) {
  const std::size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

void AppendUs(std::ostream& out, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out << buf;
}

void WriteTimelineJson(std::ostream& out, const RequestTimeline& t) {
  out << "{\"request_id\":\"" << FormatRequestId(t.request_id)
      << "\",\"endpoint\":\"" << json::Escape(t.endpoint)
      << "\",\"status\":" << t.status
      << ",\"degraded\":" << (t.degraded ? "true" : "false")
      << ",\"batch_size\":" << t.batch_size;
  out << ",\"start_us\":";
  AppendUs(out, t.start_us);
  out << ",\"parse_us\":";
  AppendUs(out, t.parse_us);
  out << ",\"queue_wait_us\":";
  AppendUs(out, t.queue_wait_us);
  out << ",\"batch_wait_us\":";
  AppendUs(out, t.batch_wait_us);
  out << ",\"extract_us\":";
  AppendUs(out, t.link.extract_us);
  out << ",\"prefilter_us\":";
  AppendUs(out, t.link.prefilter_us);
  out << ",\"prefilter_dropped\":" << t.link.prefilter_dropped
      << ",\"lru_hits\":" << t.link.lru_hits
      << ",\"lru_misses\":" << t.link.lru_misses;
  out << ",\"rank_us\":";
  AppendUs(out, t.link.rank_us);
  if (t.shards_touched > 0) {
    // Link requests only, so other endpoints' dumps stay short.
    out << ",\"scatter_us\":";
    AppendUs(out, t.scatter_us);
    out << ",\"shard_link_us\":";
    AppendUs(out, t.shard_link_us);
    out << ",\"gather_us\":";
    AppendUs(out, t.gather_us);
    out << ",\"shards_touched\":" << t.shards_touched
        << ",\"shards_failed\":" << t.shards_failed;
  }
  out << ",\"serialize_us\":";
  AppendUs(out, t.serialize_us);
  out << ",\"total_us\":";
  AppendUs(out, t.total_us);
  out << '}';
}

}  // namespace

LinkStats& LinkStats::operator+=(const LinkStats& other) {
  extract_us += other.extract_us;
  prefilter_us += other.prefilter_us;
  rank_us += other.rank_us;
  candidates += other.candidates;
  prefilter_dropped += other.prefilter_dropped;
  lru_hits += other.lru_hits;
  lru_misses += other.lru_misses;
  return *this;
}

void RequestTimeline::SetEndpoint(std::string_view path) {
  CopyTruncated(endpoint, sizeof(endpoint), path);
}

struct FlightRecorder::Impl {
  struct Slot {
    mutable std::mutex mu;
    std::uint64_t seq = 0;  // 0 = never written; else 1-based ticket
    RequestTimeline data;
  };

  explicit Impl(std::size_t capacity, std::size_t top_k)
      : slots(capacity), top_k(top_k) {}

  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> dropped{0};

  const std::size_t top_k;
  mutable std::mutex slow_mu;
  std::vector<RequestTimeline> slowest;   // sorted by total_us descending
  std::atomic<std::size_t> slow_count{0};  // == slowest.size(), lock-free read
  std::atomic<double> slow_floor{0.0};     // admission fast-path once full

  mutable std::mutex ev_mu;
  std::vector<FlightEvent> events;  // rolling ring of kEventCap
  std::uint64_t ev_head = 0;
  static constexpr std::size_t kEventCap = 64;
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder(256, 16);
  return *recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t top_k)
    : impl_(new Impl(capacity == 0 ? 1 : capacity, top_k)) {}

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::Record(const RequestTimeline& timeline) {
  Impl& im = *impl_;
  const std::uint64_t ticket = im.head.fetch_add(1, std::memory_order_relaxed) + 1;
  Impl::Slot& slot = im.slots[(ticket - 1) % im.slots.size()];
  {
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      im.dropped.fetch_add(1, std::memory_order_relaxed);
    } else if (ticket > slot.seq) {
      slot.seq = ticket;
      slot.data = timeline;
    }
  }

  // Top-K slowest: relaxed floor check keeps the common (fast request)
  // path to one atomic load once the set is full.
  if (im.top_k == 0) return;
  if (im.slow_count.load(std::memory_order_relaxed) >= im.top_k &&
      timeline.total_us <= im.slow_floor.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(im.slow_mu);
  auto pos = std::upper_bound(
      im.slowest.begin(), im.slowest.end(), timeline,
      [](const RequestTimeline& a, const RequestTimeline& b) {
        return a.total_us > b.total_us;
      });
  if (im.slowest.size() >= im.top_k && pos == im.slowest.end()) return;
  im.slowest.insert(pos, timeline);
  if (im.slowest.size() > im.top_k) im.slowest.pop_back();
  im.slow_count.store(im.slowest.size(), std::memory_order_relaxed);
  if (im.slowest.size() >= im.top_k) {
    im.slow_floor.store(im.slowest.back().total_us, std::memory_order_relaxed);
  }
}

void FlightRecorder::RecordEvent(std::string_view kind, std::string_view detail) {
  Impl& im = *impl_;
  FlightEvent event;
  event.ts_us = TraceNowUs();
  CopyTruncated(event.kind, sizeof(event.kind), kind);
  CopyTruncated(event.detail, sizeof(event.detail), detail);
  std::lock_guard<std::mutex> lock(im.ev_mu);
  if (im.events.size() < Impl::kEventCap) {
    im.events.push_back(event);
  } else {
    im.events[im.ev_head % Impl::kEventCap] = event;
  }
  ++im.ev_head;
}

std::vector<RequestTimeline> FlightRecorder::Recent() const {
  const Impl& im = *impl_;
  std::vector<std::pair<std::uint64_t, RequestTimeline>> filled;
  filled.reserve(im.slots.size());
  for (const Impl::Slot& slot : im.slots) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.seq != 0) filled.emplace_back(slot.seq, slot.data);
  }
  std::sort(filled.begin(), filled.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<RequestTimeline> out;
  out.reserve(filled.size());
  for (auto& [seq, data] : filled) out.push_back(data);
  return out;
}

std::vector<RequestTimeline> FlightRecorder::Slowest() const {
  const Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.slow_mu);
  return im.slowest;
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  const Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.ev_mu);
  std::vector<FlightEvent> out;
  out.reserve(im.events.size());
  // Oldest first: ev_head points one past the newest slot.
  if (im.events.size() < Impl::kEventCap) {
    out = im.events;
  } else {
    for (std::size_t i = 0; i < Impl::kEventCap; ++i) {
      out.push_back(im.events[(im.ev_head + i) % Impl::kEventCap]);
    }
  }
  return out;
}

void FlightRecorder::WriteJson(std::ostream& out) const {
  const std::vector<RequestTimeline> recent = Recent();
  const std::vector<RequestTimeline> slowest = Slowest();
  const std::vector<FlightEvent> events = Events();

  out << "{\"recent\": [";
  for (std::size_t i = 0; i < recent.size(); ++i) {
    if (i != 0) out << ", ";
    WriteTimelineJson(out, recent[i]);
  }
  out << "], \"slowest\": [";
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    if (i != 0) out << ", ";
    WriteTimelineJson(out, slowest[i]);
  }
  out << "], \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"ts_us\":";
    AppendUs(out, events[i].ts_us);
    out << ",\"kind\":\"" << json::Escape(events[i].kind)
        << "\",\"detail\":\"" << json::Escape(events[i].detail) << "\"}";
  }
  out << "], \"dropped\": " << dropped() << "}\n";
}

void FlightRecorder::DumpToStderr(std::string_view reason) const {
  // Buffer the JSON and emit in one write so concurrent log lines do
  // not interleave mid-object.
  std::ostringstream ss;
  ss << "flight-recorder dump reason=" << reason << '\n';
  WriteJson(ss);
  const std::string body = ss.str();
  std::fwrite(body.data(), 1, body.size(), stderr);
  std::fflush(stderr);
}

std::uint64_t FlightRecorder::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

void FlightRecorder::ResetForTest() {
  Impl& im = *impl_;
  for (Impl::Slot& slot : im.slots) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.seq = 0;
    slot.data = RequestTimeline();
  }
  im.head.store(0, std::memory_order_relaxed);
  im.dropped.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(im.slow_mu);
    im.slowest.clear();
    im.slow_count.store(0, std::memory_order_relaxed);
    im.slow_floor.store(0.0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(im.ev_mu);
    im.events.clear();
    im.ev_head = 0;
  }
}

}  // namespace skyex::obs
