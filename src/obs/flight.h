#ifndef SKYEX_OBS_FLIGHT_H_
#define SKYEX_OBS_FLIGHT_H_

// Tail-latency flight recorder.
//
// A fixed-size ring of per-request timelines (queue wait, batch wait,
// feature extraction, skyline rank, serialization, total) plus a
// retained top-K-slowest set and a small ring of marker events
// (watchdog trips, breaker opens, manual dumps). The server records
// one timeline per HTTP request; the dump answers "where did this p99
// request spend its time" after the fact, without tracing enabled.
//
// Lock-light by design: recording a timeline is an atomic ticket
// fetch_add plus a per-slot try_lock (writers never block — on the
// rare slot collision the sample is dropped and counted). Readers
// (Snapshot/WriteJson) take each slot lock briefly; there is no global
// lock and no quiescence requirement, so /debug/flight is safe while
// I/O workers and the linker are live.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace skyex::obs {

// The linker's numbers for one MatchRecord call, or summed over a
// batch of them: filled by core::IncrementalLinker::MatchRecord and
// passed whole through the serving layer (serve::LinkBatchStats, the
// shard replies) into the RequestTimeline below. Durations are
// microseconds and are only ever added to, so one record can sum a
// batch or a scatter.
struct LinkStats {
  double extract_us = 0.0;    // candidate lookup + prefilter
  double prefilter_us = 0.0;  // the prefilter share of extract_us
  double rank_us = 0.0;       // LGM-X scoring + skyline-key acceptance
  std::uint64_t candidates = 0;         // before the prefilter
  std::uint64_t prefilter_dropped = 0;  // cut by the sketch prefilter
  std::uint64_t lru_hits = 0;           // text-cache hits
  std::uint64_t lru_misses = 0;         // text-cache misses

  LinkStats& operator+=(const LinkStats& other);
};

// One request's phase breakdown, all durations in microseconds.
// Phases a request did not pass through stay 0 (e.g. /healthz has no
// queue_wait). `link` is the linker record of the batch this request
// rode in (on the sharded path: summed over the shards' replies), a
// batch-level attribution (see docs/observability.md).
struct RequestTimeline {
  std::uint64_t request_id = 0;
  char endpoint[24] = {0};  // request path, truncated
  int status = 0;
  bool degraded = false;
  std::uint32_t batch_size = 0;  // entities in the linker batch
  double start_us = 0.0;         // TraceNowUs() at request start
  double parse_us = 0.0;
  double queue_wait_us = 0.0;
  double batch_wait_us = 0.0;
  LinkStats link;
  // Link requests only (all 0 on other endpoints): the router's
  // scatter-gather split of the link phase, plus the request's fan-out.
  double scatter_us = 0.0;
  double shard_link_us = 0.0;
  double gather_us = 0.0;
  std::uint32_t shards_touched = 0;
  std::uint32_t shards_failed = 0;
  double serialize_us = 0.0;
  double total_us = 0.0;

  void SetEndpoint(std::string_view path);
};

// A marker event (watchdog trip, breaker open, ...).
struct FlightEvent {
  double ts_us = 0.0;
  char kind[24] = {0};
  char detail[72] = {0};
};

class FlightRecorder {
 public:
  // Process-wide recorder (256 recent timelines, top 16 slowest,
  // 64 events). Leaked, safe during static destruction.
  static FlightRecorder& Global();

  FlightRecorder(std::size_t capacity, std::size_t top_k);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records one finished request. Thread-safe, never blocks: a slot
  // collision (two writers landing on the same ring slot, possible
  // only when the ring wraps within one write) drops the sample.
  void Record(const RequestTimeline& timeline);

  // Records a marker event. `kind` and `detail` are truncated to the
  // FlightEvent field sizes. Thread-safe.
  void RecordEvent(std::string_view kind, std::string_view detail);

  // Most-recent-first view of the ring / the retained slowest set /
  // the marker events. Safe while writers are live.
  std::vector<RequestTimeline> Recent() const;
  std::vector<RequestTimeline> Slowest() const;
  std::vector<FlightEvent> Events() const;

  // {"recent": [...], "slowest": [...], "events": [...]} — parseable
  // by obs/json.h. Safe while writers are live.
  void WriteJson(std::ostream& out) const;

  // WriteJson to stderr with a one-line header naming the reason
  // (watchdog_trip, breaker_open, sigusr2, ...).
  void DumpToStderr(std::string_view reason) const;

  // Samples dropped to slot collisions (diagnostic).
  std::uint64_t dropped() const;

  void ResetForTest();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace skyex::obs

#endif  // SKYEX_OBS_FLIGHT_H_
