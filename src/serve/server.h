#ifndef SKYEX_SERVE_SERVER_H_
#define SKYEX_SERVE_SERVER_H_

// Embedded HTTP/1.1 linkage server. Architecture:
//
//   listener ──> conn queue ──> I/O workers ──> link queue ──> linker
//    thread      (bounded)      (pool of N)      (bounded,      thread
//                                                 admission)
//
// I/O workers parse requests and answer the cheap endpoints inline;
// /v1/link and /v1/link_batch are admitted into the bounded link queue
// (429 + Retry-After on overflow) and the single linker thread coalesces
// queued requests into one LinkService pass per wakeup (micro-batching
// window `batch_window_us`). The linker thread is the only writer of the
// IncrementalLinker dataset, satisfying the serialization contract of
// core/incremental.h.
//
// Resilience (docs/robustness.md has the full semantics):
//   - per-request deadline (`deadline_ms`): an admitted link job that
//     misses its deadline is cancelled (the linker skips it) and the
//     request gets a degraded fallback answer or 503 + Retry-After;
//   - circuit breaker around the linker: deadline expiries feed a
//     sliding failure window; past the threshold the server sheds
//     /v1/link* load with 503 + *jittered* Retry-After until a
//     half-open probe succeeds;
//   - watchdog (`watchdog_ms`): a linker thread that stops heartbeating
//     while work is pending marks the server wedged — /healthz turns
//     503, the breaker is forced open, and link requests are answered
//     degraded until the heartbeat resumes;
//   - degraded fallback (`degraded_fallback`): answers from
//     LinkService::LinkDegraded, marked "degraded":true, never
//     persisted.
//
// Endpoints:
//   POST /v1/link        {"entity": {...}}    -> links + golden record
//   POST /v1/link_batch  {"entities": [...]}  -> {"results": [...]}
//   GET  /healthz                             -> liveness + record count
//   GET  /metrics                             -> obs metrics registry JSON
//        /metrics?format=prometheus           -> Prometheus text format
//                                               with request-id exemplars
//   GET  /model                               -> model_io text (text/plain)
//   GET  /debug/flight                        -> flight-recorder dump JSON
//   GET  /debug/trace?seconds=N               -> enables the trace
//        collector for N seconds (cap 10) and streams the window as
//        Chrome trace JSON; the linker keeps running throughout
//   GET  /debug/pprof/profile?seconds=N       -> collects CPU samples
//        for N seconds (cap 30) and returns them collapsed-stack
//        (flamegraph.pl format; &format=json for the JSON profile).
//        Requires a running profiler (`profile_hz` > 0, the skyex_serve
//        default) — 503 otherwise. Serving continues throughout. The
//        window sleeps on the connection's I/O worker: when closed-loop
//        clients hold every worker, the scrape connection is not picked
//        up until one frees, so leave a worker unoccupied while scraping
//        (e.g. drive N-1 load connections against N workers).
//   GET  /debug/pprof/heap                    -> per-zone heap
//        attribution JSON (prof/heap.h); "active":false when the
//        allocation hooks are compiled out (sanitizer builds)
//   GET  /buildz                              -> build identification
//        JSON (git sha, build type, SIMD level)
//   GET  /debug/quality                       -> linkage-quality state
//        JSON (audit-log counters, drift statistics)
//
// Request-scoped tracing: every request gets a 64-bit request id —
// adopted from an incoming X-Request-Id header (hex ids parse exactly,
// anything else is hashed) or freshly generated — installed as the
// thread's obs::TraceContext for the request's lifetime, carried
// through the link queue and the linker (and into pool tasks via
// TaskGroup's context capture), echoed back as an X-Request-Id
// response header and a "request_id" member of link response bodies,
// and recorded as the request's flight-recorder timeline key and
// latency-histogram exemplar.
//
// Stop() drains gracefully: stop accepting, serve requests already in
// flight (idle keep-alive connections are closed), complete every
// admitted link job, then join all threads.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/spatial_entity.h"
#include "obs/flight.h"
#include "serve/breaker.h"
#include "serve/http.h"
#include "serve/net.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/shard_api.h"

namespace skyex::serve {

struct ServerOptions {
  uint16_t port = 8080;         // 0 = pick an ephemeral port
  size_t workers = 8;           // I/O worker threads
  size_t queue_depth = 128;     // link-job admission queue capacity
  size_t conn_backlog = 256;    // accepted-connection queue capacity
  uint32_t batch_window_us = 1000;  // micro-batch coalescing window
  size_t max_batch = 64;        // link jobs drained per linker wakeup
  size_t max_batch_entities = 256;  // entities per /v1/link_batch request
  size_t max_body_bytes = 1 << 20;
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  int retry_after_s = 1;        // Retry-After on 429
  int listen_backlog = 128;
  int deadline_ms = 0;          // per-request link deadline (0 = none)
  bool degraded_fallback = true;  // degrade instead of 503 when possible
  int watchdog_ms = 0;          // wedged-linker threshold (0 = off)
  // Sampling-profiler rate for this server's process (Hz). 0 leaves the
  // profiler alone (unit-test / sanitizer default); the skyex_serve
  // binary defaults it to prof::CpuProfiler::kDefaultHz so profiles are
  // always collectable in production.
  int profile_hz = 0;
  CircuitBreakerOptions breaker;  // sheds load on sustained failures
};

class Server {
 public:
  /// `service` must outlive the server.
  Server(LinkService* service, ServerOptions options);

  /// Sharded (router) mode: /v1/link* scatter-gathers through
  /// `backend` instead of the single linker thread. The global link
  /// queue, linker thread, server breaker, and server watchdog are not
  /// used — admission control, micro-batching, breakers, and the
  /// watchdog all live per shard behind the backend (src/shard/).
  /// `backend` must outlive the server and be started by the caller.
  Server(ShardBackend* backend, ServerOptions options);

  ~Server();

  /// Binds and spawns the listener, worker and linker threads. False +
  /// `error` when the port cannot be bound.
  bool Start(std::string* error);

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Graceful drain; blocks until every thread is joined. Idempotent.
  void Stop();

  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t responses_ok = 0;
    uint64_t responses_client_error = 0;  // 4xx except 429
    uint64_t rejected = 0;                // 429
    uint64_t shed = 0;                    // 503 (deliberate backpressure)
    uint64_t responses_server_error = 0;  // 5xx except 503
    uint64_t deadline_expired = 0;        // link jobs past deadline
    uint64_t degraded = 0;                // degraded fallback answers
    uint64_t breaker_rejected = 0;        // shed by the open breaker
    uint64_t breaker_opens = 0;
    uint64_t watchdog_trips = 0;
  };
  Stats stats() const;

  /// True while the watchdog considers the linker wedged (router mode:
  /// while EVERY shard is wedged).
  bool wedged() const {
    return backend_ != nullptr ? backend_->wedged()
                               : wedged_.load(std::memory_order_relaxed);
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  // The linker thread's answer to one job, handed to the I/O worker
  // through the job's promise: the job's slice of the batch results
  // plus the linker-side timings of the batch it rode in.
  struct LinkReply {
    std::vector<LinkResult> results;
    double queue_wait_us = 0.0;  // enqueue -> batch popped
    double batch_wait_us = 0.0;  // batch popped -> linking starts
    uint32_t batch_size = 0;     // entities linked in the batch
    obs::LinkStats stats;        // the batch's linker record
  };

  struct LinkJob {
    std::vector<data::SpatialEntity> entities;
    double enqueue_us = 0.0;
    uint64_t request_id = 0;
    // Set by the I/O worker when the request's deadline expires; the
    // linker skips cancelled jobs instead of mutating the dataset for
    // a caller that already gave up.
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::promise<LinkReply> done;
  };

  void ListenerLoop();
  void WorkerLoop();
  void LinkerLoop();
  void WatchdogLoop();
  void ServeConnection(UniqueFd fd);
  HttpResponse Dispatch(const HttpRequest& request,
                        obs::RequestTimeline* timeline);
  HttpResponse HandleLink(const HttpRequest& request, bool batch,
                          obs::RequestTimeline* timeline);
  // Router-mode link path: runs the scatter-gather on the I/O worker
  // (per-shard queues do the micro-batching) and fills the timeline's
  // scatter/shard_link/gather phases.
  HttpResponse HandleLinkSharded(std::vector<data::SpatialEntity> entities,
                                 bool batch,
                                 obs::RequestTimeline* timeline);
  HttpResponse HandleDebugTrace(const HttpRequest& request);
  HttpResponse HandleProfile(const HttpRequest& request);
  HttpResponse DegradedResponse(
      const std::vector<data::SpatialEntity>& entities, bool batch,
      obs::RequestTimeline* timeline);
  HttpResponse ShedResponse(const std::string& message);
  HttpResponse ErrorResponse(int status, const std::string& message) const;
  // Builds the link response body, timing serialization into the
  // request's timeline and echoing its id in the body.
  static HttpResponse LinkResponse(const std::vector<LinkResult>& results,
                                   bool batch,
                                   obs::RequestTimeline* timeline);
  // Records a flight-recorder marker + dump when the breaker opened
  // since the last call (deadline-fed opens and watchdog force-opens).
  void NoteBreakerOpens();

  LinkService* service_;            // unsharded mode (else nullptr)
  ShardBackend* backend_ = nullptr; // router mode (else nullptr)
  ServerOptions options_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};   // listener + watchdog exit
  std::atomic<bool> draining_{false};   // workers abort idle reads
  std::atomic<bool> stopped_{false};

  BatchQueue<UniqueFd> conn_queue_;
  BatchQueue<LinkJob> link_queue_;
  CircuitBreaker breaker_;

  std::thread listener_;
  std::vector<std::thread> workers_;
  std::thread linker_;
  std::thread watchdog_;

  // Watchdog protocol: the linker stamps `linker_heartbeat_ms_` around
  // every batch; wedged = heartbeat stale while busy or work is queued.
  std::atomic<int64_t> linker_heartbeat_ms_{0};
  std::atomic<bool> linker_busy_{false};
  std::atomic<bool> wedged_{false};
  // Record count as of the last completed batch — lets /healthz answer
  // without touching the (possibly wedged) linker mutex.
  std::atomic<uint64_t> last_record_count_{0};

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_client_error_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> responses_server_error_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> breaker_rejected_{0};
  std::atomic<uint64_t> watchdog_trips_{0};
  // Breaker opens already reported to the flight recorder.
  std::atomic<uint64_t> flight_seen_opens_{0};
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SERVER_H_
