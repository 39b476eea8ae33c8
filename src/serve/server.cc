#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "core/build_info.h"
#include "fault/fault.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "prof/heap.h"
#include "prof/prof.h"
#include "quality/quality.h"

namespace skyex::serve {

namespace {

const std::vector<double>& BatchSizeBuckets() {
  static const std::vector<double>* buckets = new std::vector<double>{
      1, 2, 4, 8, 16, 32, 64, 128, 256};
  return *buckets;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Value of `key` in an (unescaped) query string "a=1&b=2"; false when
// the key is absent.
bool QueryParam(const std::string& query, std::string_view key,
                std::string* out) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string_view part =
        std::string_view(query).substr(pos, end - pos);
    const size_t eq = part.find('=');
    if (eq != std::string_view::npos && part.substr(0, eq) == key) {
      out->assign(part.substr(eq + 1));
      return true;
    }
    pos = end + 1;
  }
  return false;
}

}  // namespace

Server::Server(LinkService* service, ServerOptions options)
    : service_(service),
      options_(options),
      conn_queue_(options.conn_backlog),
      link_queue_(options.queue_depth),
      breaker_(options.breaker) {}

Server::Server(ShardBackend* backend, ServerOptions options)
    : service_(nullptr),
      backend_(backend),
      options_(options),
      conn_queue_(options.conn_backlog),
      link_queue_(options.queue_depth),
      breaker_(options.breaker) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listen_fd_ = ListenTcp(options_.port, options_.listen_backlog, error);
  if (!listen_fd_.valid()) return false;
  port_ = LocalPort(listen_fd_.get());
  last_record_count_.store(backend_ != nullptr ? backend_->record_count()
                                               : service_->record_count(),
                           std::memory_order_relaxed);
  linker_heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
  started_.store(true);
  listener_ = std::thread(&Server::ListenerLoop, this);
  if (backend_ == nullptr) {
    // Router mode has neither the global linker thread nor the server
    // watchdog: micro-batching and wedge detection live per shard.
    linker_ = std::thread(&Server::LinkerLoop, this);
    if (options_.watchdog_ms > 0) {
      watchdog_ = std::thread(&Server::WatchdogLoop, this);
    }
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  if (options_.profile_hz > 0) {
    std::string profile_error;
    if (!prof::CpuProfiler::Global().Start(options_.profile_hz,
                                           &profile_error) &&
        !profile_error.empty()) {
      SKYEX_LOG_WARN("serve/start", "profiler unavailable",
                     {"error", profile_error});
    }
  }
  SKYEX_LOG_INFO("serve/start", "server listening", {"port", port_},
                 {"workers", options_.workers},
                 {"queue_depth", options_.queue_depth},
                 {"batch_window_us", options_.batch_window_us},
                 {"deadline_ms", options_.deadline_ms},
                 {"watchdog_ms", options_.watchdog_ms});
  return true;
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  SKYEX_LOG_INFO("serve/stop", "draining",
                 {"queued_jobs", link_queue_.size()},
                 {"queued_connections", conn_queue_.size()});
  // 1. Stop accepting; the listener closes the listen socket on exit.
  stopping_.store(true);
  listener_.join();
  // 2. Workers: finish in-flight requests, serve connections that were
  //    already accepted, close idle keep-alive connections.
  draining_.store(true);
  conn_queue_.Close();
  for (std::thread& worker : workers_) worker.join();
  // 3. Every admitted link job now has its producer gone; drain the
  //    queue so no promise is left unfulfilled, then stop the linker.
  link_queue_.Close();
  if (linker_.joinable()) linker_.join();
  if (watchdog_.joinable()) watchdog_.join();
  SKYEX_LOG_INFO("serve/stop", "shutdown complete",
                 {"requests", requests_.load()},
                 {"responses_ok", responses_ok_.load()},
                 {"rejected_429", rejected_.load()},
                 {"deadline_expired", deadline_expired_.load()},
                 {"degraded", degraded_.load()},
                 {"breaker_opens", backend_ != nullptr
                                       ? backend_->breaker_opens()
                                       : breaker_.opens()});
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections = connections_.load();
  s.requests = requests_.load();
  s.responses_ok = responses_ok_.load();
  s.responses_client_error = responses_client_error_.load();
  s.rejected = rejected_.load();
  s.shed = shed_.load();
  s.responses_server_error = responses_server_error_.load();
  s.deadline_expired = deadline_expired_.load();
  s.degraded = degraded_.load();
  s.breaker_rejected = breaker_rejected_.load();
  s.breaker_opens =
      backend_ != nullptr ? backend_->breaker_opens() : breaker_.opens();
  s.watchdog_trips = watchdog_trips_.load();
  return s;
}

void Server::ListenerLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = AcceptWithTimeout(listen_fd_.get(), 100);
    if (fd == kAcceptTimeout) continue;
    if (fd == kAcceptError) break;
    connections_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/connections");
    if (conn_queue_.TryPush(UniqueFd(fd)) != PushResult::kOk) {
      // Connection backlog full: shed load at the door (the fd closes
      // on UniqueFd destruction, clients see a reset).
      SKYEX_COUNTER_INC("serve/connections_shed");
    }
  }
  listen_fd_.Reset();
}

void Server::WorkerLoop() {
  std::vector<UniqueFd> batch;
  while (conn_queue_.PopBatch(&batch, std::chrono::microseconds(0), 1)) {
    for (UniqueFd& fd : batch) ServeConnection(std::move(fd));
  }
}

void Server::ServeConnection(UniqueFd fd) {
  SKYEX_SPAN("serve/connection");
  std::string leftover;
  HttpReadOptions read_options;
  read_options.timeout_ms = options_.read_timeout_ms;
  read_options.max_body = options_.max_body_bytes;
  read_options.abort_idle = &draining_;
  for (;;) {
    HttpRequest request;
    const ReadStatus status =
        ReadHttpRequest(fd.get(), &request, &leftover, read_options);
    if (status == ReadStatus::kClosed || status == ReadStatus::kError) {
      return;
    }
    if (status != ReadStatus::kOk) {
      HttpResponse response;
      switch (status) {
        case ReadStatus::kTooLarge:
          response = ErrorResponse(413, "request body too large");
          SKYEX_COUNTER_INC("serve/oversized_413");
          break;
        case ReadStatus::kTimeout:
          response = ErrorResponse(408, "request read timed out");
          break;
        default:
          response = ErrorResponse(400, "malformed HTTP request");
          break;
      }
      responses_client_error_.fetch_add(1, std::memory_order_relaxed);
      WriteHttpResponse(fd.get(), response, /*close=*/true,
                        options_.write_timeout_ms);
      return;  // framing is unreliable now; drop the connection
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/http_requests");
    const double start_us = obs::TraceNowUs();

    // Request id: adopt the client's X-Request-Id (hex ids parse
    // exactly so our own ids round-trip; anything else is hashed) or
    // mint one. The original header value is echoed back verbatim;
    // internally the 64-bit id keys logs, the flight recorder and
    // exemplars.
    uint64_t request_id = 0;
    std::string request_id_text;
    const auto rid_header = request.headers.find("x-request-id");
    if (rid_header != request.headers.end() && !rid_header->second.empty()) {
      request_id = obs::RequestIdFromText(rid_header->second);
      request_id_text = rid_header->second;
    } else {
      request_id = obs::NewRequestId();
      request_id_text = obs::FormatRequestId(request_id);
    }
    obs::ScopedTraceContext context_scope(
        obs::TraceContext{request_id, 0});

    obs::RequestTimeline timeline;
    timeline.request_id = request_id;
    timeline.start_us = start_us;
    timeline.SetEndpoint(request.path);

    HttpResponse response;
    {
      // After the context scope, so the samples carry this request id.
      SKYEX_PHASE("serve/handle_request", prof::Phase::kServe, nullptr);
      response = Dispatch(request, &timeline);
    }
    response.extra_headers.emplace_back("X-Request-Id", request_id_text);
    if (response.status < 300) {
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
    } else if (response.status == 429) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    } else if (response.status == 503) {
      // Deliberate backpressure — breaker open, deadline shed, drain,
      // wedged health check — not a server fault.
      shed_.fetch_add(1, std::memory_order_relaxed);
    } else if (response.status < 500) {
      responses_client_error_.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_server_error_.fetch_add(1, std::memory_order_relaxed);
    }
    const bool close =
        !request.KeepAlive() || draining_.load(std::memory_order_relaxed);
    const bool written = WriteHttpResponse(fd.get(), response, close,
                                           options_.write_timeout_ms);
    timeline.status = response.status;
    timeline.total_us = obs::TraceNowUs() - start_us;
    obs::FlightRecorder::Global().Record(timeline);
    SKYEX_HISTOGRAM_OBSERVE_US_EX("serve/request_latency_us",
                                  timeline.total_us, request_id);
    if (!written || close) return;
  }
}

HttpResponse Server::Dispatch(const HttpRequest& request,
                              obs::RequestTimeline* timeline) {
  if (request.path == "/v1/link" || request.path == "/v1/link_batch") {
    if (request.method != "POST") {
      return ErrorResponse(405, "use POST");
    }
    return HandleLink(request, request.path == "/v1/link_batch", timeline);
  }
  if (request.path == "/healthz") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    // A wedged linker likely holds the service mutex, so /healthz must
    // not call record_count() then — it reports the cached count.
    // Router mode counts records from per-shard atomics (mutex-free)
    // and is wedged only when EVERY shard is.
    const bool wedged = this->wedged();
    json::Writer writer;
    writer.BeginObject();
    writer.Key("status").String(
        wedged ? "wedged"
               : draining_.load(std::memory_order_relaxed) ? "draining"
                                                           : "ok");
    if (backend_ != nullptr) {
      writer.Key("records").Uint(backend_->record_count());
      writer.Key("queue_depth").Uint(link_queue_.size());
      writer.Key("breaker").String("sharded");
      writer.Key("shards").Uint(backend_->num_shards());
    } else {
      writer.Key("records").Uint(
          wedged ? last_record_count_.load(std::memory_order_relaxed)
                 : service_->record_count());
      writer.Key("queue_depth").Uint(link_queue_.size());
      writer.Key("breaker").String(breaker_.StateName(NowMs()));
    }
    writer.EndObject();
    HttpResponse response;
    if (wedged) response.status = 503;
    response.body = writer.Take();
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    std::string format;
    QueryParam(request.query, "format", &format);
    // Refresh the pull-style gauges once per scrape: process vitals
    // (RSS, fds, uptime), per-zone heap attribution, and (router mode)
    // the per-shard shard/<id>/... gauges.
    obs::PublishProcessGauges();
    prof::PublishHeapGauges();
    if (backend_ != nullptr) backend_->PublishGauges();
    quality::Runtime::Global().PublishMetrics();
    std::ostringstream out;
    HttpResponse response;
    if (format == "prometheus") {
      obs::MetricsRegistry::Global().WritePrometheus(out);
      response.content_type = "text/plain; version=0.0.4";
    } else {
      obs::MetricsRegistry::Global().WriteJson(out);
    }
    response.body = out.str();
    return response;
  }
  if (request.path == "/debug/flight") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    std::ostringstream out;
    obs::FlightRecorder::Global().WriteJson(out);
    HttpResponse response;
    response.body = out.str();
    return response;
  }
  if (request.path == "/debug/trace") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    return HandleDebugTrace(request);
  }
  if (request.path == "/debug/pprof/profile") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    return HandleProfile(request);
  }
  if (request.path == "/debug/pprof/heap") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    std::ostringstream out;
    prof::WriteHeapProfileJson(out);
    HttpResponse response;
    response.body = out.str();
    return response;
  }
  if (request.path == "/model") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = backend_ != nullptr ? backend_->model_text()
                                        : service_->model_text();
    return response;
  }
  if (request.path == "/buildz") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    HttpResponse response;
    response.body = core::BuildInfoJson();
    return response;
  }
  if (request.path == "/debug/quality") {
    if (request.method != "GET") return ErrorResponse(405, "use GET");
    std::ostringstream out;
    quality::Runtime::Global().WriteDebugJson(out);
    HttpResponse response;
    response.body = out.str();
    return response;
  }
  return ErrorResponse(404, "no such endpoint");
}

HttpResponse Server::LinkResponse(const std::vector<LinkResult>& results,
                                  bool batch,
                                  obs::RequestTimeline* timeline) {
  SKYEX_PHASE("serve/serialize_response", prof::Phase::kServe,
              &timeline->serialize_us);
  const std::string rid = obs::FormatRequestId(timeline->request_id);
  json::Writer writer;
  if (batch) {
    writer.BeginObject();
    writer.Key("request_id").String(rid);
    writer.Key("results").BeginArray();
    for (const LinkResult& result : results) {
      WriteLinkResultJson(&writer, result);
    }
    writer.EndArray();
    writer.EndObject();
  } else {
    WriteLinkResultJson(&writer, results[0], &rid);
  }
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse Server::DegradedResponse(
    const std::vector<data::SpatialEntity>& entities, bool batch,
    obs::RequestTimeline* timeline) {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  SKYEX_COUNTER_INC("serve/degraded_responses");
  timeline->degraded = true;
  return LinkResponse(service_->LinkDegraded(entities), batch, timeline);
}

HttpResponse Server::HandleDebugTrace(const HttpRequest& request) {
  std::string seconds_text;
  int seconds = 1;
  if (QueryParam(request.query, "seconds", &seconds_text)) {
    try {
      seconds = std::stoi(seconds_text);
    } catch (...) {
      return ErrorResponse(400, "seconds must be an integer");
    }
  }
  seconds = std::clamp(seconds, 1, 10);

  // Enable the collector for the window, then export only events that
  // started inside it. Snapshot() is safe while pool workers and the
  // linker are live (see trace.h), so nothing pauses. The window
  // occupies this I/O worker; concurrent requests proceed on the
  // others. If tracing was already on (e.g. --trace-out), leave it on
  // and don't reset, so the long-running collection is untouched.
  auto& collector = obs::TraceCollector::Global();
  const bool was_enabled = collector.enabled();
  const double window_start = obs::TraceNowUs();
  collector.SetEnabled(true);
  for (int slept_ms = 0;
       slept_ms < seconds * 1000 &&
       !draining_.load(std::memory_order_relaxed);
       slept_ms += 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!was_enabled) collector.SetEnabled(false);

  std::vector<obs::TraceEvent> events = collector.Snapshot();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [window_start](const obs::TraceEvent& e) {
                                return e.ts_us < window_start;
                              }),
               events.end());
  std::ostringstream out;
  obs::WriteChromeTraceEvents(out, events);
  HttpResponse response;
  response.body = out.str();
  return response;
}

HttpResponse Server::HandleProfile(const HttpRequest& request) {
  auto& profiler = prof::CpuProfiler::Global();
  if (!profiler.running()) {
    return ErrorResponse(
        503, "profiler not running (start skyex_serve with --profile-hz)");
  }
  std::string seconds_text;
  int seconds = 2;
  if (QueryParam(request.query, "seconds", &seconds_text)) {
    try {
      seconds = std::stoi(seconds_text);
    } catch (...) {
      return ErrorResponse(400, "seconds must be an integer");
    }
  }
  seconds = std::clamp(seconds, 1, 30);
  std::string format;
  QueryParam(request.query, "format", &format);

  // Window collection: discard whatever accumulated since the last
  // drain, sleep the window out on this I/O worker (concurrent
  // requests proceed on the others; draining cuts the window short),
  // then drain exactly the window's samples. Drain() is safe while the
  // handlers keep writing — see prof/prof.h.
  profiler.DiscardPending();
  for (int slept_ms = 0;
       slept_ms < seconds * 1000 &&
       !draining_.load(std::memory_order_relaxed);
       slept_ms += 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const prof::Profile profile = profiler.Drain();

  HttpResponse response;
  if (format == "json") {
    std::ostringstream out;
    prof::WriteProfileJson(out, profile);
    response.body = out.str();
  } else {
    response.content_type = "text/plain";
    response.body = prof::CollapseProfile(profile);
  }
  return response;
}

HttpResponse Server::ShedResponse(const std::string& message) {
  HttpResponse response = ErrorResponse(503, message);
  response.extra_headers.emplace_back(
      "Retry-After", std::to_string(breaker_.RetryAfterSeconds()));
  return response;
}

HttpResponse Server::HandleLink(const HttpRequest& request, bool batch,
                                obs::RequestTimeline* timeline) {
  std::string error;
  LinkJob job;
  {
    SKYEX_PHASE("serve/parse_request", prof::Phase::kServe,
                &timeline->parse_us);
    const auto parsed = obs::json::Parse(request.body, &error);
    if (!parsed.has_value()) {
      SKYEX_COUNTER_INC("serve/bad_json_400");
      return ErrorResponse(400, "invalid JSON: " + error);
    }
    if (batch) {
      const obs::json::Value* entities = parsed->Find("entities");
      if (entities == nullptr || !entities->is_array()) {
        return ErrorResponse(400, "body needs an array field 'entities'");
      }
      if (entities->array_v.empty()) {
        return ErrorResponse(400, "'entities' must not be empty");
      }
      if (entities->array_v.size() > options_.max_batch_entities) {
        return ErrorResponse(
            400, "'entities' exceeds the per-request cap of " +
                     std::to_string(options_.max_batch_entities));
      }
      job.entities.resize(entities->array_v.size());
      for (size_t i = 0; i < entities->array_v.size(); ++i) {
        if (!ParseEntityJson(entities->array_v[i], &job.entities[i],
                             &error)) {
          return ErrorResponse(
              400, "entities[" + std::to_string(i) + "]: " + error);
        }
      }
    } else {
      const obs::json::Value* entity = parsed->Find("entity");
      if (entity == nullptr) {
        return ErrorResponse(400, "body needs an object field 'entity'");
      }
      job.entities.resize(1);
      if (!ParseEntityJson(*entity, &job.entities[0], &error)) {
        return ErrorResponse(400, error);
      }
    }
  }

  // Injected allocation failure at the admission boundary: the request
  // is well-formed but the server refuses to take on the work.
  if (SKYEX_FAULT_FIRE("serve.alloc", nullptr)) {
    SKYEX_COUNTER_INC("serve/alloc_failures");
    return ShedResponse("out of memory (injected)");
  }

  // Router mode: no global link queue or server breaker — admission,
  // batching, breakers and degradation all happen per shard behind the
  // backend. An unhealthy shard degrades results rather than shedding
  // the whole request, so the wedged pre-check is skipped too.
  if (backend_ != nullptr) {
    return HandleLinkSharded(std::move(job.entities), batch, timeline);
  }

  // A wedged linker cannot serve the full path; don't enqueue work that
  // would only expire. The watchdog clears the flag on recovery.
  if (wedged_.load(std::memory_order_relaxed)) {
    if (options_.degraded_fallback) {
      return DegradedResponse(job.entities, batch, timeline);
    }
    return ShedResponse("linker wedged");
  }

  if (!breaker_.Admit(NowMs())) {
    breaker_rejected_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/breaker_rejected");
    return ShedResponse("circuit breaker open");
  }

  // Keep a copy for the degraded path: the job itself is moved into the
  // queue and may still be consumed by the linker after we give up.
  std::vector<data::SpatialEntity> fallback_entities;
  if (options_.deadline_ms > 0 && options_.degraded_fallback) {
    fallback_entities = job.entities;
  }

  job.enqueue_us = obs::TraceNowUs();
  job.request_id = timeline->request_id;
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  job.cancelled = cancelled;
  std::future<LinkReply> future = job.done.get_future();
  const PushResult pushed = link_queue_.TryPush(std::move(job));
  SKYEX_GAUGE_SET("serve/queue_depth",
                  static_cast<double>(link_queue_.size()));
  if (pushed == PushResult::kFull) {
    // Backpressure, not linker failure: release a half-open probe slot
    // without biasing the breaker window.
    breaker_.RecordNeutral(NowMs());
    SKYEX_COUNTER_INC("serve/rejected_429");
    HttpResponse response = ErrorResponse(429, "link queue is full");
    response.extra_headers.emplace_back(
        "Retry-After", std::to_string(options_.retry_after_s));
    return response;
  }
  if (pushed == PushResult::kClosed) {
    breaker_.RecordNeutral(NowMs());
    return ErrorResponse(503, "server is draining");
  }

  // Without a deadline the wait is unbounded. Injected clock skew eats
  // into a deadline's budget, as a skewed or stepped clock would.
  const bool bounded = options_.deadline_ms > 0;
  std::chrono::milliseconds budget(0);
  if (bounded) {
    double skew_ms = 0.0;
    fault::FaultAction skew_action;
    if (SKYEX_FAULT_FIRE("serve.clock_skew", &skew_action)) {
      skew_ms = skew_action.ms;
    }
    budget = std::chrono::milliseconds(std::max<int64_t>(
        0, options_.deadline_ms - static_cast<int64_t>(skew_ms)));
  }
  bool ready = true;
  LinkReply reply;
  {
    SKYEX_SPAN("serve/queue_wait");
    ready = !bounded ||
            future.wait_for(budget) == std::future_status::ready;
    if (ready) reply = future.get();
  }
  if (!ready) {
    cancelled->store(true, std::memory_order_relaxed);
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/deadline_expired");
    breaker_.RecordFailure(NowMs());
    NoteBreakerOpens();
    if (options_.degraded_fallback) {
      return DegradedResponse(fallback_entities, batch, timeline);
    }
    return ShedResponse("deadline exceeded");
  }
  breaker_.RecordSuccess(NowMs());
  timeline->queue_wait_us = reply.queue_wait_us;
  timeline->batch_wait_us = reply.batch_wait_us;
  timeline->batch_size = reply.batch_size;
  timeline->link = reply.stats;
  return LinkResponse(reply.results, batch, timeline);
}

HttpResponse Server::HandleLinkSharded(
    std::vector<data::SpatialEntity> entities, bool batch,
    obs::RequestTimeline* timeline) {
  SKYEX_SPAN("serve/link_sharded");
  ShardPhases phases;
  std::vector<LinkResult> results =
      backend_->Link(entities, options_.deadline_ms, &phases);
  timeline->link = phases.link;
  timeline->scatter_us = phases.scatter_us;
  timeline->shard_link_us = phases.shard_link_us;
  timeline->gather_us = phases.gather_us;
  timeline->shards_touched = phases.shards_touched;
  timeline->shards_failed = phases.shards_failed;
  timeline->batch_size = static_cast<uint32_t>(entities.size());
  bool degraded = false;
  for (const LinkResult& result : results) degraded |= result.degraded;
  if (degraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/degraded_responses");
    timeline->degraded = true;
  }
  return LinkResponse(results, batch, timeline);
}

void Server::LinkerLoop() {
  std::vector<LinkJob> jobs;
  while (link_queue_.PopBatch(
      &jobs, std::chrono::microseconds(options_.batch_window_us),
      options_.max_batch)) {
    const double pop_us = obs::TraceNowUs();
    // Attribute the linker's work (log lines, pool tasks) to the first
    // live job of the batch — batches are usually size 1, and a single
    // representative id beats no id for "what was the linker doing".
    obs::TraceContext batch_context;
    for (const LinkJob& job : jobs) {
      if (job.cancelled == nullptr ||
          !job.cancelled->load(std::memory_order_relaxed)) {
        batch_context = obs::TraceContext{job.request_id, 0};
        break;
      }
    }
    obs::ScopedTraceContext context_scope(batch_context);
    // Linker glue samples as serve; LinkMany below re-tags its own
    // blocking/extraction/ranking stretches.
    SKYEX_PROF_PHASE(::skyex::prof::Phase::kServe);
    linker_busy_.store(true, std::memory_order_relaxed);
    linker_heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    std::vector<data::SpatialEntity> entities;
    std::vector<size_t> offsets;  // start of each job's slice
    std::vector<LinkReply> replies(jobs.size());
    double batch_wait_us = 0.0;
    {
      SKYEX_PHASE("serve/batch_assembly", prof::Phase::kServe,
                  &batch_wait_us);
      // Injected wedge: the stall happens while busy with the heartbeat
      // frozen, exactly what a deadlocked or livelocked linker looks
      // like to the watchdog.
      fault::FaultAction stall;
      if (SKYEX_FAULT_FIRE("linker.stall", &stall)) {
        SKYEX_LOG_WARN("serve/linker", "injected stall", {"ms", stall.ms});
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(stall.ms));
      }
      SKYEX_GAUGE_SET("serve/queue_depth",
                      static_cast<double>(link_queue_.size()));
      size_t total = 0;
      size_t skipped = 0;
      offsets.reserve(jobs.size());
      for (const LinkJob& job : jobs) total += job.entities.size();
      entities.reserve(total);
      for (size_t j = 0; j < jobs.size(); ++j) {
        offsets.push_back(entities.size());
        // A cancelled job's caller gave up at its deadline; skipping it
        // keeps the abandoned request from mutating the dataset. Its
        // slice stays empty.
        if (jobs[j].cancelled != nullptr &&
            jobs[j].cancelled->load(std::memory_order_relaxed)) {
          ++skipped;
          continue;
        }
        replies[j].queue_wait_us = pop_us - jobs[j].enqueue_us;
        SKYEX_HISTOGRAM_OBSERVE_US("serve/queue_wait_us",
                                   replies[j].queue_wait_us);
        for (data::SpatialEntity& e : jobs[j].entities) {
          entities.push_back(std::move(e));
        }
      }
      if (skipped > 0) {
        SKYEX_COUNTER_ADD("serve/jobs_skipped_cancelled", skipped);
      }
      SKYEX_HISTOGRAM_OBSERVE("serve/batch_size",
                              static_cast<double>(entities.size()),
                              BatchSizeBuckets());
    }

    std::vector<LinkResult> results;
    LinkBatchStats batch_stats;
    if (!entities.empty()) {
      // Base tag for the linking pass: acceptance + golden-record time
      // samples as ranking; candidate scan and feature extraction
      // re-tag themselves inside (core/incremental.cc).
      SKYEX_PROF_PHASE(::skyex::prof::Phase::kRanking);
      results = service_->LinkMany(entities, &batch_stats);
      if (!results.empty()) {
        last_record_count_.store(results.back().record_index + 1,
                                 std::memory_order_relaxed);
      }
    }

    for (size_t j = 0; j < jobs.size(); ++j) {
      const size_t begin = offsets[j];
      const size_t end =
          j + 1 < jobs.size() ? offsets[j + 1] : results.size();
      LinkReply& reply = replies[j];
      reply.results.assign(std::make_move_iterator(results.begin() + begin),
                           std::make_move_iterator(results.begin() + end));
      reply.batch_wait_us = batch_wait_us;
      reply.batch_size = static_cast<uint32_t>(entities.size());
      reply.stats = batch_stats;
      jobs[j].done.set_value(std::move(reply));
    }
    linker_heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    linker_busy_.store(false, std::memory_order_relaxed);
  }
}

void Server::WatchdogLoop() {
  const int64_t interval =
      std::max<int64_t>(10, options_.watchdog_ms / 4);
  while (!stopping_.load(std::memory_order_relaxed)) {
    for (int64_t slept = 0;
         slept < interval && !stopping_.load(std::memory_order_relaxed);
         slept += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const int64_t now = NowMs();
    const bool active = linker_busy_.load(std::memory_order_relaxed) ||
                        link_queue_.size() > 0;
    const int64_t age =
        now - linker_heartbeat_ms_.load(std::memory_order_relaxed);
    if (active && age > options_.watchdog_ms) {
      if (!wedged_.exchange(true, std::memory_order_relaxed)) {
        watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
        SKYEX_COUNTER_INC("serve/watchdog_trips");
        SKYEX_GAUGE_SET("serve/wedged", 1.0);
        SKYEX_LOG_WARN("serve/watchdog", "linker wedged",
                       {"heartbeat_age_ms", age},
                       {"queue_depth", link_queue_.size()});
        breaker_.ForceOpen(now);
        obs::FlightRecorder::Global().RecordEvent(
            "watchdog_trip", "heartbeat_age_ms=" + std::to_string(age) +
                                 " queue_depth=" +
                                 std::to_string(link_queue_.size()));
        obs::FlightRecorder::Global().DumpToStderr("watchdog_trip");
        NoteBreakerOpens();
      }
    } else if (wedged_.exchange(false, std::memory_order_relaxed)) {
      SKYEX_GAUGE_SET("serve/wedged", 0.0);
      SKYEX_LOG_INFO("serve/watchdog", "linker recovered",
                     {"heartbeat_age_ms", age});
    }
  }
}

void Server::NoteBreakerOpens() {
  const uint64_t opens = breaker_.opens();
  uint64_t seen = flight_seen_opens_.load(std::memory_order_relaxed);
  while (seen < opens) {
    if (flight_seen_opens_.compare_exchange_weak(
            seen, opens, std::memory_order_relaxed)) {
      obs::FlightRecorder::Global().RecordEvent(
          "breaker_open", "opens=" + std::to_string(opens));
      obs::FlightRecorder::Global().DumpToStderr("breaker_open");
      return;
    }
  }
}

HttpResponse Server::ErrorResponse(int status,
                                   const std::string& message) const {
  json::Writer writer;
  writer.BeginObject();
  writer.Key("error").String(message);
  writer.Key("status").Int(status);
  writer.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = writer.Take();
  return response;
}

}  // namespace skyex::serve
