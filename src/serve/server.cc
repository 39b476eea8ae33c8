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

Server::Server(ShardBackend* backend, ServerOptions options)
    : backend_(backend),
      options_(options),
      conn_queue_(options.conn_backlog) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listen_fd_ = ListenTcp(options_.port, options_.listen_backlog, error);
  if (!listen_fd_.valid()) return false;
  port_ = LocalPort(listen_fd_.get());
  started_.store(true);
  listener_ = std::thread(&Server::ListenerLoop, this);
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
                 {"shards", backend_->num_shards()},
                 {"deadline_ms", options_.deadline_ms});
  return true;
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  SKYEX_LOG_INFO("serve/stop", "draining",
                 {"queued_jobs", backend_->queue_depth()},
                 {"queued_connections", conn_queue_.size()});
  // 1. Stop accepting; the listener closes the listen socket on exit.
  stopping_.store(true);
  listener_.join();
  // 2. Workers: finish in-flight requests (their shard jobs complete),
  //    serve connections that were already accepted, close idle
  //    keep-alive connections.
  draining_.store(true);
  conn_queue_.Close();
  for (std::thread& worker : workers_) worker.join();
  SKYEX_LOG_INFO("serve/stop", "shutdown complete",
                 {"requests", requests_.load()},
                 {"responses_ok", responses_ok_.load()},
                 {"rejected_429", rejected_.load()},
                 {"deadline_expired", deadline_expired_.load()},
                 {"degraded", degraded_.load()},
                 {"breaker_opens", backend_->breaker_opens()});
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
  s.breaker_opens = backend_->breaker_opens();
  s.watchdog_trips = backend_->watchdog_trips();
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
    // record_count() reads under the records locks, not the linker
    // mutexes, so it stays live while wedged. The server is wedged only
    // when EVERY shard is.
    const bool wedged = this->wedged();
    json::Writer writer;
    writer.BeginObject();
    writer.Key("status").String(
        wedged ? "wedged"
               : draining_.load(std::memory_order_relaxed) ? "draining"
                                                           : "ok");
    writer.Key("records").Uint(backend_->record_count());
    writer.Key("queue_depth").Uint(backend_->queue_depth());
    writer.Key("breaker").String(backend_->breaker_state());
    writer.Key("shards").Uint(backend_->num_shards());
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
    // (RSS, fds, uptime), per-zone heap attribution, and the backend's
    // queue depth and per-shard shard/<id>/... gauges.
    obs::PublishProcessGauges();
    prof::PublishHeapGauges();
    backend_->PublishGauges();
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
    response.body = backend_->model_text();
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

HttpResponse Server::HandleLink(const HttpRequest& request, bool batch,
                                obs::RequestTimeline* timeline) {
  std::string error;
  LinkRequest link;
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
      link.entities.resize(entities->array_v.size());
      for (size_t i = 0; i < entities->array_v.size(); ++i) {
        if (!ParseEntityJson(entities->array_v[i], &link.entities[i],
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
      link.entities.resize(1);
      if (!ParseEntityJson(*entity, &link.entities[0], &error)) {
        return ErrorResponse(400, error);
      }
    }
  }

  // Injected allocation failure at the admission boundary: the request
  // is well-formed but the server refuses to take on the work.
  if (SKYEX_FAULT_FIRE("serve.alloc", nullptr)) {
    SKYEX_COUNTER_INC("serve/alloc_failures");
    return RetryLater(503, "out of memory (injected)", options_.retry_after_s);
  }

  // Injected clock skew eats into a deadline's budget, as a skewed or
  // stepped clock would. Without a deadline the wait is unbounded.
  if (options_.deadline_ms > 0) {
    double skew_ms = 0.0;
    fault::FaultAction skew_action;
    if (SKYEX_FAULT_FIRE("serve.clock_skew", &skew_action)) {
      skew_ms = skew_action.ms;
    }
    link.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(std::max<int64_t>(
                        0, options_.deadline_ms -
                               static_cast<int64_t>(skew_ms)));
  }
  link.degraded_fallback = options_.degraded_fallback;

  const LinkAnswer answer = backend_->Link(std::move(link), timeline);
  if (answer.deadline_expired) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/deadline_expired");
  }
  switch (answer.status) {
    case LinkStatus::kOk:
      break;
    case LinkStatus::kLost:
      return RetryLater(503, "deadline exceeded or shard wedged",
                        answer.retry_after_s);
    case LinkStatus::kRefused:
      breaker_rejected_.fetch_add(1, std::memory_order_relaxed);
      SKYEX_COUNTER_INC("serve/breaker_rejected");
      return RetryLater(503, "circuit breaker open", answer.retry_after_s);
    case LinkStatus::kQueueFull:
      SKYEX_COUNTER_INC("serve/rejected_429");
      return RetryLater(429, "link queue is full", options_.retry_after_s);
  }
  for (const LinkResult& result : answer.results) {
    if (!result.degraded) continue;
    degraded_.fetch_add(1, std::memory_order_relaxed);
    SKYEX_COUNTER_INC("serve/degraded_responses");
    timeline->degraded = true;
    break;
  }
  return LinkResponse(answer.results, batch, timeline);
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

HttpResponse Server::RetryLater(int status, const std::string& message,
                                int retry_after_s) const {
  HttpResponse response = ErrorResponse(status, message);
  response.extra_headers.emplace_back("Retry-After",
                                      std::to_string(retry_after_s));
  return response;
}

}  // namespace skyex::serve
