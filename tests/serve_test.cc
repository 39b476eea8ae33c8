// In-process tests of the serving stack: a real Server on an ephemeral
// port, exercised over real sockets with the HttpClient. Covers the
// happy path, batching, error mapping (400/404/405/413), admission
// control (429 + Retry-After), concurrent access (the thread-safety
// contract of core/incremental.h is enforced by the shard's single
// worker thread — asserted here by consistency under concurrency) and
// the graceful drain, plus the micro-batching queue's linger. The
// server runs the default pipeline: one shard behind the router.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"

namespace skyex {
namespace {

// Train once; every test re-bootstraps its own service from a copy of
// the dataset and a reload of the saved model text (which also routes
// every test through the v2 model round trip).
struct Trained {
  data::Dataset dataset;
  std::string model_text;
};

const Trained& TrainOnce() {
  static const Trained* trained = [] {
    auto* out = new Trained;
    data::NorthDkOptions options;
    options.num_entities = 500;
    options.seed = 11;
    core::PreparedData d = core::PrepareNorthDk(options);
    const auto split = eval::RandomSplit(d.pairs.size(), 0.2, 4);
    const core::SkyExT skyex;
    const auto model = skyex.Train(d.features, d.pairs.labels, split.train);
    out->model_text = core::SaveModel(model);
    out->dataset = std::move(d.dataset);
    return out;
  }();
  return *trained;
}

struct TestServer {
  std::unique_ptr<shard::Router> router;
  std::unique_ptr<serve::Server> server;

  uint16_t port() const { return server->port(); }
};

TestServer StartServer(serve::ServerOptions options = {},
                       shard::RouterOptions pipeline = {}) {
  const Trained& trained = TrainOnce();
  auto model = core::LoadModel(trained.model_text);
  EXPECT_TRUE(model.has_value());
  std::string error;
  TestServer ts;
  ts.router = shard::BootstrapRouter(trained.dataset, std::move(*model), {},
                                     1, pipeline, &error);
  EXPECT_NE(ts.router, nullptr) << error;
  ts.router->Start();
  options.port = 0;  // ephemeral
  ts.server = std::make_unique<serve::Server>(ts.router.get(), options);
  EXPECT_TRUE(ts.server->Start(&error)) << error;
  return ts;
}

// A near-duplicate of a dataset record with coordinates: identical
// attributes from a different source, so its feature row dominates the
// calibrated acceptance boundary and it must link.
data::SpatialEntity DuplicateEntity(uint64_t id) {
  const Trained& trained = TrainOnce();
  for (size_t i = 0; i < trained.dataset.size(); ++i) {
    const data::SpatialEntity& e = trained.dataset[i];
    if (!e.location.valid || e.phone.empty()) continue;
    data::SpatialEntity copy = e;
    copy.id = id;
    copy.source = e.source == data::Source::kYelp ? data::Source::kKrak
                                                  : data::Source::kYelp;
    return copy;
  }
  ADD_FAILURE() << "no located record with a phone in the test dataset";
  return {};
}

std::string LinkBody(const data::SpatialEntity& entity) {
  serve::json::Writer writer;
  writer.BeginObject();
  writer.Key("entity");
  serve::WriteEntityJson(&writer, entity);
  writer.EndObject();
  return writer.Take();
}

std::string BatchBody(const std::vector<data::SpatialEntity>& entities) {
  serve::json::Writer writer;
  writer.BeginObject();
  writer.Key("entities").BeginArray();
  for (const auto& e : entities) serve::WriteEntityJson(&writer, e);
  writer.EndArray();
  writer.EndObject();
  return writer.Take();
}

std::string Header(const serve::HttpResponse& response,
                   const std::string& lowercase_key) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == lowercase_key) return value;
  }
  return "";
}

TEST(ServeTest, LinkHappyPath) {
  TestServer ts = StartServer();
  const size_t initial = ts.router->record_count();
  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());

  const auto response =
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(900001)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const auto* record_index = json->Find("record_index");
  ASSERT_NE(record_index, nullptr);
  EXPECT_EQ(static_cast<size_t>(record_index->number_v), initial);
  const auto* links = json->Find("links");
  ASSERT_NE(links, nullptr);
  ASSERT_TRUE(links->is_array());
  // An exact duplicate dominates the acceptance boundary.
  EXPECT_FALSE(links->array_v.empty());
  const auto* merged = json->Find("merged");
  ASSERT_NE(merged, nullptr);
  ASSERT_TRUE(merged->is_object());
  EXPECT_NE(merged->Find("name"), nullptr);
  EXPECT_EQ(ts.router->record_count(), initial + 1);
}

TEST(ServeTest, LinkBatchPreservesOrder) {
  TestServer ts = StartServer();
  const size_t initial = ts.router->record_count();
  serve::HttpClient client("127.0.0.1", ts.port());
  const std::vector<data::SpatialEntity> entities = {
      DuplicateEntity(910001), DuplicateEntity(910002),
      DuplicateEntity(910003)};

  const auto response =
      client.Request("POST", "/v1/link_batch", BatchBody(entities));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const auto* results = json->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array_v.size(), entities.size());
  for (size_t i = 0; i < results->array_v.size(); ++i) {
    const auto* record_index = results->array_v[i].Find("record_index");
    ASSERT_NE(record_index, nullptr);
    EXPECT_EQ(static_cast<size_t>(record_index->number_v), initial + i);
  }
  EXPECT_EQ(ts.router->record_count(), initial + entities.size());
}

TEST(ServeTest, ErrorMapping) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());

  const auto bad_json = client.Request("POST", "/v1/link", "{not json");
  ASSERT_TRUE(bad_json.has_value());
  EXPECT_EQ(bad_json->status, 400);
  EXPECT_NE(bad_json->body.find("error"), std::string::npos);

  const auto no_name = client.Request("POST", "/v1/link",
                                      R"({"entity": {"phone": "123"}})");
  ASSERT_TRUE(no_name.has_value());
  EXPECT_EQ(no_name->status, 400);

  const auto wrong_method = client.Request("GET", "/v1/link");
  ASSERT_TRUE(wrong_method.has_value());
  EXPECT_EQ(wrong_method->status, 405);

  const auto not_found = client.Request("GET", "/nope");
  ASSERT_TRUE(not_found.has_value());
  EXPECT_EQ(not_found->status, 404);

  const auto empty_batch =
      client.Request("POST", "/v1/link_batch", R"({"entities": []})");
  ASSERT_TRUE(empty_batch.has_value());
  EXPECT_EQ(empty_batch->status, 400);

  // Numbers that no integer field can hold are rejected before any cast
  // (1e400 parses to inf).
  for (const char* field : {
           R"("id": -1)", R"("id": 1e400)", R"("id": 1e20)",
           R"("source": -1)", R"("source": 1e10)", R"("source": -1e400)",
           R"("address_number": 3e9)", R"("address_number": -3e9)",
           R"("address_number": 1e400)"}) {
    const std::string body =
        std::string(R"({"entity": {"name": "kro", )") + field + "}}";
    const auto response = client.Request("POST", "/v1/link", body);
    ASSERT_TRUE(response.has_value()) << field;
    EXPECT_EQ(response->status, 400) << field;
    EXPECT_NE(response->body.find("error"), std::string::npos) << field;
  }
}

// Invalid UTF-8 in a text field is repaired to U+FFFD, as CSV loading
// does, instead of being stored and echoed raw.
TEST(ServeTest, InvalidUtf8IsRepaired) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  // Far from every store record, so the merged record is the entity.
  const auto response = client.Request(
      "POST", "/v1/link",
      "{\"entity\": {\"name\": \"kro \xff\xfe bar\", "
      "\"lat\": -45.0, \"lon\": -120.0}}");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200) << response->body;
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const auto* merged = json->Find("merged");
  ASSERT_NE(merged, nullptr);
  const auto* name = merged->Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string_v, "kro \xEF\xBF\xBD\xEF\xBF\xBD bar");
  EXPECT_EQ(response->body.find('\xff'), std::string::npos);
}

TEST(ServeTest, OversizedBodyGets413) {
  serve::ServerOptions options;
  options.max_body_bytes = 512;
  TestServer ts = StartServer(options);
  serve::HttpClient client("127.0.0.1", ts.port());

  const std::string big(2048, 'x');
  const auto response = client.Request("POST", "/v1/link", big);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 413);
}

TEST(ServeTest, HealthzMetricsAndModel) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());

  const auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  std::string error;
  const auto health_json = obs::json::Parse(health->body, &error);
  ASSERT_TRUE(health_json.has_value()) << error;
  ASSERT_NE(health_json->Find("status"), nullptr);
  EXPECT_EQ(health_json->Find("status")->string_v, "ok");
  ASSERT_NE(health_json->Find("records"), nullptr);
  EXPECT_EQ(static_cast<size_t>(health_json->Find("records")->number_v),
            ts.router->record_count());

  const auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  const auto metrics_json = obs::json::Parse(metrics->body, &error);
  ASSERT_TRUE(metrics_json.has_value()) << error;
  EXPECT_NE(metrics_json->Find("counters"), nullptr);

  const auto model = client.Request("GET", "/model");
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->status, 200);
  EXPECT_EQ(model->content_type, "text/plain");
  EXPECT_NE(model->body.find("preference: "), std::string::npos);
  EXPECT_NE(model->body.find("group1: "), std::string::npos);
  // The served text is exactly the loaded model (v2 fixed point).
  EXPECT_TRUE(core::LoadModel(model->body).has_value());
}

// Offered load above the admission queue's capacity must shed with 429
// + Retry-After instead of queueing unboundedly.
TEST(ServeTest, QueueOverflowGets429WithRetryAfter) {
  serve::ServerOptions options;
  options.workers = 8;
  shard::RouterOptions pipeline;
  pipeline.node.queue_capacity = 1;
  // The linker lingers the full window waiting for a second job that can
  // never be admitted (capacity 1), so the queue stays full and every
  // concurrent push sheds deterministically.
  pipeline.node.batch_window_us = 200000;
  pipeline.node.max_batch = 2;
  TestServer ts = StartServer(options, pipeline);

  constexpr size_t kClients = 8;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> with_retry_after{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::HttpClient client("127.0.0.1", ts.port(), 20000);
      const auto response = client.Request(
          "POST", "/v1/link", LinkBody(DuplicateEntity(920000 + c)));
      if (!response.has_value()) return;
      if (response->status == 200) ok.fetch_add(1);
      if (response->status == 429) {
        rejected.fetch_add(1);
        if (!Header(*response, "retry-after").empty()) {
          with_retry_after.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);
  EXPECT_EQ(with_retry_after.load(), rejected.load());
  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  EXPECT_GE(ts.server->stats().rejected, rejected.load());
}

// The concurrent-access guarantee: many clients linking at once must
// observe a consistent, serialized dataset — every response gets a
// unique record index and the final count adds up. This is the test the
// core/incremental.h thread-safety contract points at.
TEST(ServeTest, ConcurrentLinksAreSerialized) {
  serve::ServerOptions options;
  options.workers = 8;
  shard::RouterOptions pipeline;
  pipeline.node.batch_window_us = 2000;
  TestServer ts = StartServer(options, pipeline);
  const size_t initial = ts.router->record_count();

  constexpr size_t kThreads = 6;
  constexpr size_t kRequests = 5;
  std::vector<std::vector<size_t>> indices(kThreads);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      serve::HttpClient client("127.0.0.1", ts.port(), 20000);
      for (size_t r = 0; r < kRequests; ++r) {
        const auto response = client.Request(
            "POST", "/v1/link",
            LinkBody(DuplicateEntity(930000 + c * kRequests + r)));
        ASSERT_TRUE(response.has_value());
        ASSERT_EQ(response->status, 200) << response->body;
        std::string error;
        const auto json = obs::json::Parse(response->body, &error);
        ASSERT_TRUE(json.has_value()) << error;
        const auto* record_index = json->Find("record_index");
        ASSERT_NE(record_index, nullptr);
        indices[c].push_back(static_cast<size_t>(record_index->number_v));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<size_t> unique;
  for (const auto& per_thread : indices) {
    for (size_t index : per_thread) unique.insert(index);
  }
  EXPECT_EQ(unique.size(), kThreads * kRequests);
  EXPECT_EQ(*unique.begin(), initial);
  EXPECT_EQ(*unique.rbegin(), initial + kThreads * kRequests - 1);
  EXPECT_EQ(ts.router->record_count(), initial + kThreads * kRequests);
}

// Stop() must complete every admitted request before tearing down: no
// client that got its request in sees a dropped connection.
TEST(ServeTest, GracefulDrainCompletesInFlightRequests) {
  serve::ServerOptions options;
  options.workers = 6;  // one per client: all requests admitted at once
  shard::RouterOptions pipeline;
  pipeline.node.batch_window_us = 50000;  // hold jobs so Stop() races work
  TestServer ts = StartServer(options, pipeline);

  constexpr size_t kClients = 6;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> sent{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::HttpClient client("127.0.0.1", ts.port(), 20000);
      if (!client.ok()) return;
      sent.fetch_add(1);
      const auto response = client.Request(
          "POST", "/v1/link", LinkBody(DuplicateEntity(940000 + c)));
      if (response.has_value() && response->status == 200) ok.fetch_add(1);
    });
  }
  // Wait until every request has been parsed (it is then either queued
  // or in flight), and drain while the batch window holds them pending.
  while (ts.server->stats().requests < kClients) {
    std::this_thread::yield();
  }
  ts.server->Stop();
  for (auto& t : threads) t.join();

  EXPECT_EQ(sent.load(), kClients);
  EXPECT_EQ(ok.load(), kClients);

  // After the drain the server refuses new connections.
  serve::HttpClient late("127.0.0.1", ts.port(), 500);
  EXPECT_FALSE(late.ok() &&
               late.Request("GET", "/healthz").has_value());
}

TEST(ServeTest, KeepAliveServesSequentialRequests) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Request("GET", "/healthz");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
  }
  // Still the same connection: the server counted one.
  EXPECT_EQ(ts.server->stats().connections, 1u);
  EXPECT_EQ(ts.server->stats().requests, 3u);
}

// ------------------------------------------- request-scoped tracing

TEST(ServeTest, GeneratesAndEchoesARequestId) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(950001)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // A fresh id: 16 hex digits in the header, echoed in the body.
  const std::string rid = Header(*response, "x-request-id");
  ASSERT_EQ(rid.size(), 16u);
  uint64_t parsed = 0;
  EXPECT_TRUE(obs::ParseRequestId(rid, &parsed));
  EXPECT_NE(parsed, 0u);
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  ASSERT_NE(json->Find("request_id"), nullptr);
  EXPECT_EQ(json->Find("request_id")->string_v, rid);
}

TEST(ServeTest, AdoptsAClientHexRequestId) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  std::vector<data::SpatialEntity> entities = {DuplicateEntity(950002),
                                               DuplicateEntity(950003)};
  const auto response = client.Request(
      "POST", "/v1/link_batch", BatchBody(entities), "application/json",
      {{"X-Request-Id", "00000000deadbeef"}});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // The client's hex id is echoed verbatim and used as the internal id.
  EXPECT_EQ(Header(*response, "x-request-id"), "00000000deadbeef");
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  ASSERT_NE(json->Find("request_id"), nullptr);
  EXPECT_EQ(json->Find("request_id")->string_v, "00000000deadbeef");
  ASSERT_NE(json->Find("results"), nullptr);
  EXPECT_EQ(json->Find("results")->array_v.size(), 2u);
}

TEST(ServeTest, HashesAForeignRequestIdButEchoesTheOriginal) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  const auto response = client.Request(
      "POST", "/v1/link", LinkBody(DuplicateEntity(950004)),
      "application/json", {{"X-Request-Id", "trace/abc-123!"}});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // Non-hex ids echo as given in the header; the body carries the
  // internal 16-hex form (the flight-recorder / exemplar key).
  EXPECT_EQ(Header(*response, "x-request-id"), "trace/abc-123!");
  std::string error;
  const auto json = obs::json::Parse(response->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  ASSERT_NE(json->Find("request_id"), nullptr);
  EXPECT_EQ(json->Find("request_id")->string_v,
            obs::FormatRequestId(obs::RequestIdFromText("trace/abc-123!")));
}

// ------------------------------------------------ flight recorder

TEST(ServeTest, DebugFlightShowsTheRequestWithPhases) {
  obs::FlightRecorder::Global().ResetForTest();
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  const auto link = client.Request(
      "POST", "/v1/link", LinkBody(DuplicateEntity(950005)),
      "application/json", {{"X-Request-Id", "00000000cafe0005"}});
  ASSERT_TRUE(link.has_value());
  ASSERT_EQ(link->status, 200);

  const auto flight = client.Request("GET", "/debug/flight");
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->status, 200);
  std::string error;
  const auto json = obs::json::Parse(flight->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const auto* recent = json->Find("recent");
  ASSERT_NE(recent, nullptr);
  const obs::json::Value* ours = nullptr;
  for (const auto& entry : recent->array_v) {
    const auto* rid = entry.Find("request_id");
    if (rid != nullptr && rid->string_v == "00000000cafe0005") ours = &entry;
  }
  ASSERT_NE(ours, nullptr) << flight->body;
  EXPECT_EQ(ours->Find("endpoint")->string_v, "/v1/link");
  EXPECT_EQ(ours->Find("status")->number_v, 200.0);
  EXPECT_EQ(ours->Find("batch_size")->number_v, 1.0);
  // The full phase breakdown is present and plausible: the phases are
  // all non-negative and no phase exceeds the total.
  const double total = ours->Find("total_us")->number_v;
  EXPECT_GT(total, 0.0);
  for (const char* phase : {"parse_us", "queue_wait_us", "batch_wait_us",
                            "extract_us", "rank_us", "serialize_us"}) {
    ASSERT_NE(ours->Find(phase), nullptr) << phase;
    EXPECT_GE(ours->Find(phase)->number_v, 0.0) << phase;
    EXPECT_LE(ours->Find(phase)->number_v, total) << phase;
  }
  // A linked request spent real time in the linker phases.
  EXPECT_GT(ours->Find("extract_us")->number_v +
                ours->Find("rank_us")->number_v,
            0.0);
}

// ------------------------------------------------ live exposition

TEST(ServeTest, PrometheusScrapeCarriesRequestExemplars) {
  obs::MetricsRegistry::Global().ResetForTest();
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  const auto link = client.Request(
      "POST", "/v1/link", LinkBody(DuplicateEntity(950006)),
      "application/json", {{"X-Request-Id", "00000000cafe0006"}});
  ASSERT_TRUE(link.has_value());
  ASSERT_EQ(link->status, 200);

  const auto scrape = client.Request("GET", "/metrics?format=prometheus");
  ASSERT_TRUE(scrape.has_value());
  EXPECT_EQ(scrape->status, 200);
  EXPECT_EQ(scrape->content_type.rfind("text/plain", 0), 0u);
  const std::string& text = scrape->body;
  EXPECT_NE(text.find("# TYPE skyex_serve_http_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE skyex_serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("skyex_serve_request_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // The link request's id is attached to its latency bucket.
  EXPECT_NE(text.find("# {request_id=\"00000000cafe0006\"}"),
            std::string::npos)
      << text;
}

TEST(ServeTest, DebugTraceStreamsChromeJsonWhileLinking) {
  TestServer ts = StartServer();
  // Concurrent link traffic for the whole trace window: the snapshot
  // must be taken while workers and the linker are live.
  std::atomic<bool> stop{false};
  std::thread traffic([&ts, &stop] {
    serve::HttpClient client("127.0.0.1", ts.port());
    uint64_t id = 960000;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client.ok()) client = serve::HttpClient("127.0.0.1", ts.port());
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(++id)));
    }
  });
  serve::HttpClient client("127.0.0.1", ts.port(), 15000);
  const auto trace = client.Request("GET", "/debug/trace?seconds=1");
  stop.store(true);
  traffic.join();
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->status, 200);
  std::string error;
  const auto json = obs::json::Parse(trace->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const auto* events = json->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The window overlapped live link traffic, so spans were collected,
  // and every event is a complete Chrome trace record.
  EXPECT_FALSE(events->array_v.empty());
  for (const auto& e : events->array_v) {
    ASSERT_NE(e.Find("name"), nullptr);
    EXPECT_EQ(e.Find("ph")->string_v, "X");
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
  }
  // The bounded window turned the collector back off.
  const auto after = client.Request("GET", "/debug/trace?seconds=0");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);  // seconds clamps to >= 1
}

TEST(ServeTest, DebugTraceRejectsBadSeconds) {
  TestServer ts = StartServer();
  serve::HttpClient client("127.0.0.1", ts.port());
  const auto response = client.Request("GET", "/debug/trace?seconds=x");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
}

// The micro-batching linger ends a window after the oldest queued job
// was pushed: a job that already waited that long pops at once, and a
// fresh one still lingers the whole window. The bounds are wide: the
// fresh pop cannot end before its window, and the old pop ends far
// inside one.
TEST(BatchQueueTest, LingersOnlyUntilTheOldestJobsWindowEnds) {
  using Clock = std::chrono::steady_clock;
  const auto window = std::chrono::milliseconds(400);
  serve::BatchQueue<int> queue(8);
  std::vector<int> batch;

  ASSERT_EQ(queue.TryPush(1), serve::PushResult::kOk);
  std::this_thread::sleep_for(window + std::chrono::milliseconds(100));
  const Clock::time_point old_start = Clock::now();
  ASSERT_TRUE(queue.PopBatch(&batch, window, 64));
  EXPECT_LT(Clock::now() - old_start, window / 2);
  EXPECT_EQ(batch, std::vector<int>{1});

  const Clock::time_point fresh_push = Clock::now();
  ASSERT_EQ(queue.TryPush(2), serve::PushResult::kOk);
  ASSERT_TRUE(queue.PopBatch(&batch, window, 64));
  EXPECT_GE(Clock::now() - fresh_push, window);
  EXPECT_EQ(batch, std::vector<int>{2});
}

}  // namespace
}  // namespace skyex
