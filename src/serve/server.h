#ifndef SKYEX_SERVE_SERVER_H_
#define SKYEX_SERVE_SERVER_H_

// Embedded HTTP/1.1 linkage server. Architecture:
//
//   listener ──> conn queue ──> I/O workers ──> router ──> per-shard ──> shard
//    thread      (bounded)      (pool of N)     (scatter,   queue        worker
//                                                gather)    (bounded,    (one per
//                                                            admission)   shard)
//
// I/O workers parse requests and answer the cheap endpoints inline;
// /v1/link and /v1/link_batch go to the ShardBackend (shard::Router at
// every --shards count, one included), which sends one job per target
// shard onto that shard's bounded queue (429 + Retry-After when every
// target is full). Each shard's worker thread coalesces queued jobs
// into one pass per wakeup (micro-batching window `batch_window_us`)
// and is the only writer of its IncrementalLinker, satisfying the
// serialization contract of core/incremental.h.
//
// Resilience (docs/robustness.md has the full semantics):
//   - per-request deadline (`deadline_ms`): a shard job that misses the
//     deadline is cancelled (the worker skips it, taking no record
//     index) and the shard contributes a degraded fallback answer, or
//     the request gets 503 + Retry-After;
//   - a circuit breaker per shard: deadline expiries and shard errors
//     feed a sliding failure window; past the threshold the shard
//     refuses jobs, and a request every target refuses is shed with
//     503 + *jittered* Retry-After until a half-open probe succeeds;
//   - watchdog (`watchdog_ms`): a shard worker that stops heartbeating
//     while work is pending marks the shard wedged — its breaker is
//     forced open and its requests are answered degraded until the
//     heartbeat resumes; /healthz turns 503 (still with the live record
//     count) while every shard is wedged;
//   - degraded fallback (`degraded_fallback`): LinkService::LinkDegraded
//     — name Jaro-Winkler >= 0.9 within 500 m over the shard's own
//     records, read under the records lock rather than the linker mutex
//     — marked "degraded":true, never persisted.
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
// through the shard jobs and their workers (and into pool tasks via
// TaskGroup's context capture), echoed back as an X-Request-Id
// response header and a "request_id" member of link response bodies,
// and recorded as the request's flight-recorder timeline key and
// latency-histogram exemplar.
//
// Stop() drains gracefully: stop accepting, serve requests already in
// flight (idle keep-alive connections are closed; their shard jobs
// complete), then join all threads. The backend is stopped after it.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "serve/http.h"
#include "serve/net.h"
#include "serve/queue.h"
#include "serve/shard_api.h"

namespace skyex::serve {

/// The HTTP side's knobs. The link pipeline's (queue depth, batch
/// window, max batch, breaker, watchdog) belong to the backend:
/// shard::RouterOptions.
struct ServerOptions {
  uint16_t port = 8080;         // 0 = pick an ephemeral port
  size_t workers = 8;           // I/O worker threads
  size_t conn_backlog = 256;    // accepted-connection queue capacity
  size_t max_batch_entities = 256;  // entities per /v1/link_batch request
  size_t max_body_bytes = 1 << 20;
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  int retry_after_s = 1;        // Retry-After on 429 and injected 503s
  int listen_backlog = 128;
  int deadline_ms = 0;          // per-request link deadline (0 = none)
  bool degraded_fallback = true;  // degrade instead of 503 when possible
  // Sampling-profiler rate for this server's process (Hz). 0 leaves the
  // profiler alone (unit-test / sanitizer default); the skyex_serve
  // binary defaults it to prof::CpuProfiler::kDefaultHz so profiles are
  // always collectable in production.
  int profile_hz = 0;
};

class Server {
 public:
  /// /v1/link* go through `backend`, which must outlive the server and
  /// be started by the caller (and stopped after Stop()).
  Server(ShardBackend* backend, ServerOptions options);

  ~Server();

  /// Binds and spawns the listener and worker threads. False + `error`
  /// when the port cannot be bound.
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
    uint64_t deadline_expired = 0;        // requests past their deadline
    uint64_t degraded = 0;                // degraded answers
    uint64_t breaker_rejected = 0;        // shed by open breakers
    uint64_t breaker_opens = 0;
    uint64_t watchdog_trips = 0;
  };
  Stats stats() const;

  /// True while the watchdog considers every shard wedged.
  bool wedged() const { return backend_->wedged(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  void ListenerLoop();
  void WorkerLoop();
  void ServeConnection(UniqueFd fd);
  HttpResponse Dispatch(const HttpRequest& request,
                        obs::RequestTimeline* timeline);
  HttpResponse HandleLink(const HttpRequest& request, bool batch,
                          obs::RequestTimeline* timeline);
  HttpResponse HandleDebugTrace(const HttpRequest& request);
  HttpResponse HandleProfile(const HttpRequest& request);
  HttpResponse ErrorResponse(int status, const std::string& message) const;
  // ErrorResponse with a Retry-After header.
  HttpResponse RetryLater(int status, const std::string& message,
                          int retry_after_s) const;
  // Builds the link response body, timing serialization into the
  // request's timeline and echoing its id in the body.
  static HttpResponse LinkResponse(const std::vector<LinkResult>& results,
                                   bool batch,
                                   obs::RequestTimeline* timeline);

  ShardBackend* backend_;
  ServerOptions options_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};   // listener exits
  std::atomic<bool> draining_{false};   // workers abort idle reads
  std::atomic<bool> stopped_{false};

  BatchQueue<UniqueFd> conn_queue_;

  std::thread listener_;
  std::vector<std::thread> workers_;

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
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SERVER_H_
