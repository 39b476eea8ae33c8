// Resilience tests: the circuit breaker state machine in isolation,
// then the hardened serving path end to end — deadlines expiring into
// degraded answers or 503s (at one shard and at two), the breaker
// opening under sustained failures and recovering through a half-open
// probe, the watchdog flagging a wedged linker on /healthz, and
// socket-level fault points (short reads, EINTR, slow I/O) leaving
// request handling correct. Server-level fault scenarios are driven by
// the src/fault/ registry.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "fault/fault.h"
#include "serve/breaker.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"

namespace skyex {
namespace {

// ---------------------------------------------------------------------
// CircuitBreaker unit tests (no server, simulated clock).

serve::CircuitBreakerOptions SmallBreaker() {
  serve::CircuitBreakerOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.open_ms = 100;
  options.max_retry_after_s = 4;
  return options;
}

TEST(CircuitBreakerTest, StaysClosedBelowThresholdAndMinSamples) {
  serve::CircuitBreaker breaker(SmallBreaker());
  int64_t now = 0;
  // Three failures: above the rate threshold but below min_samples.
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(now);
  EXPECT_TRUE(breaker.Admit(now));
  EXPECT_EQ(breaker.opens(), 0u);
  // Successes dilute the window below the threshold.
  for (int i = 0; i < 5; ++i) breaker.RecordSuccess(now);
  EXPECT_TRUE(breaker.Admit(now));
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, OpensShedsThenRecoversThroughProbe) {
  serve::CircuitBreaker breaker(SmallBreaker());
  int64_t now = 0;
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(now);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.Admit(now));          // open: shed
  EXPECT_FALSE(breaker.Admit(now + 50));     // still open

  // After open_ms exactly one probe is admitted; its peers are shed.
  now += 101;
  EXPECT_TRUE(breaker.Admit(now));   // the half-open probe
  EXPECT_FALSE(breaker.Admit(now));  // concurrent request: shed
  breaker.RecordSuccess(now);        // probe succeeds -> closed
  EXPECT_TRUE(breaker.Admit(now));
  EXPECT_EQ(breaker.opens(), 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  serve::CircuitBreaker breaker(SmallBreaker());
  int64_t now = 0;
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(now);
  now += 101;
  EXPECT_TRUE(breaker.Admit(now));
  breaker.RecordFailure(now);  // probe fails -> open again
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.Admit(now + 50));
}

TEST(CircuitBreakerTest, NeutralOutcomeReleasesProbeWithoutVerdict) {
  serve::CircuitBreaker breaker(SmallBreaker());
  int64_t now = 0;
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(now);
  now += 101;
  EXPECT_TRUE(breaker.Admit(now));  // probe admitted...
  breaker.RecordNeutral(now);       // ...but 429'd before the linker
  // The probe slot is free again — the next request may probe.
  EXPECT_TRUE(breaker.Admit(now));
  breaker.RecordSuccess(now);
  EXPECT_TRUE(breaker.Admit(now));
  EXPECT_EQ(breaker.opens(), 1u);
}

TEST(CircuitBreakerTest, ForceOpenShedsImmediately) {
  serve::CircuitBreaker breaker(SmallBreaker());
  breaker.ForceOpen(0);
  EXPECT_FALSE(breaker.Admit(0));
  EXPECT_EQ(breaker.opens(), 1u);
}

TEST(CircuitBreakerTest, RetryAfterIsJitteredWithinRange) {
  serve::CircuitBreaker breaker(SmallBreaker());
  bool varied = false;
  int first = breaker.RetryAfterSeconds();
  for (int i = 0; i < 32; ++i) {
    const int s = breaker.RetryAfterSeconds();
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 4);
    varied = varied || s != first;
  }
  EXPECT_TRUE(varied);  // full jitter, not a constant
}

TEST(CircuitBreakerTest, DisabledBreakerAlwaysAdmits) {
  serve::CircuitBreakerOptions options = SmallBreaker();
  options.enabled = false;
  serve::CircuitBreaker breaker(options);
  for (int i = 0; i < 20; ++i) breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.Admit(0));
  EXPECT_EQ(breaker.opens(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end scenarios: a real server on an ephemeral port with fault
// points armed. Mirrors the serve_test harness.

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

TestServer StartServer(serve::ServerOptions options = {}, size_t shards = 1,
                       shard::RouterOptions pipeline = {}) {
  const Trained& trained = TrainOnce();
  auto model = core::LoadModel(trained.model_text);
  EXPECT_TRUE(model.has_value());
  std::string error;
  TestServer ts;
  ts.router = shard::BootstrapRouter(trained.dataset, std::move(*model), {},
                                     shards, pipeline, &error);
  EXPECT_NE(ts.router, nullptr) << error;
  ts.router->Start();
  options.port = 0;  // ephemeral
  ts.server = std::make_unique<serve::Server>(ts.router.get(), options);
  EXPECT_TRUE(ts.server->Start(&error)) << error;
  return ts;
}

// The store record LinkBody re-sends.
const data::SpatialEntity& ResentRecord() {
  const Trained& trained = TrainOnce();
  for (const data::SpatialEntity& e : trained.dataset.entities) {
    if (e.location.valid) return e;
  }
  ADD_FAILURE() << "no located record in the test dataset";
  return trained.dataset.entities.front();
}

std::string LinkBody(uint64_t id) {
  data::SpatialEntity entity = ResentRecord();
  entity.id = id;
  serve::json::Writer writer;
  writer.BeginObject();
  writer.Key("entity");
  serve::WriteEntityJson(&writer, entity);
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

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::Global().DisarmAll(); }
  void TearDown() override { fault::Registry::Global().DisarmAll(); }
};

// The deadline cases run at one shard and at two: `linker.stall` fires
// in whichever shard worker pops the next batch.

void DeadlineExpiryFallsBackToDegradedAnswer(size_t shards) {
  serve::ServerOptions options;
  options.deadline_ms = 100;
  options.degraded_fallback = true;
  TestServer ts = StartServer(options, shards);
  // A one-shot stall longer than the deadline: the first batch wedges
  // past the budget, so the request must come back degraded.
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "linker.stall:after=1,times=1,ms=600", &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(3000000001));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"degraded\":true"), std::string::npos)
      << response->body;
  EXPECT_GE(ts.server->stats().deadline_expired, 1u);
  EXPECT_GE(ts.server->stats().degraded, 1u);
  ts.server->Stop();  // drains cleanly with the job cancelled
}

TEST_F(ResilienceTest, DeadlineExpiryFallsBackToDegradedAnswer) {
  DeadlineExpiryFallsBackToDegradedAnswer(1);
}

TEST_F(ResilienceTest, DeadlineExpiryFallsBackToDegradedAnswerAtTwoShards) {
  DeadlineExpiryFallsBackToDegradedAnswer(2);
}

void DeadlineExpiryWithoutFallbackSheds503(size_t shards) {
  serve::ServerOptions options;
  options.deadline_ms = 100;
  options.degraded_fallback = false;
  TestServer ts = StartServer(options, shards);
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "linker.stall:after=1,times=1,ms=600", &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(3000000002));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);
  const std::string retry_after = Header(*response, "retry-after");
  ASSERT_FALSE(retry_after.empty());
  const int seconds = std::stoi(retry_after);
  EXPECT_GE(seconds, 1);
  EXPECT_LE(seconds, 4);
  ts.server->Stop();
}

TEST_F(ResilienceTest, DeadlineExpiryWithoutFallbackSheds503) {
  DeadlineExpiryWithoutFallbackSheds503(1);
}

TEST_F(ResilienceTest, DeadlineExpiryWithoutFallbackSheds503AtTwoShards) {
  DeadlineExpiryWithoutFallbackSheds503(2);
}

void ClockSkewEatsTheDeadlineBudget(size_t shards) {
  serve::ServerOptions options;
  options.deadline_ms = 5000;  // generous — only skew can expire it
  options.degraded_fallback = true;
  TestServer ts = StartServer(options, shards);
  std::string error;
  // The skew zeroes the wait budget, so the handler polls the future
  // exactly once; a brief linker stall keeps the batch from winning
  // that race (extraction is fast enough to finish inside the push →
  // poll window otherwise).
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "serve.clock_skew:after=1,ms=10000;"
      "linker.stall:after=1,times=1,ms=600",
      &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(3000000003));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"degraded\":true"), std::string::npos);
  // The skewed clock must not make the request *wait* the full budget.
  EXPECT_LT(elapsed.count(), 4000);
  ts.server->Stop();
}

TEST_F(ResilienceTest, ClockSkewEatsTheDeadlineBudget) {
  ClockSkewEatsTheDeadlineBudget(1);
}

TEST_F(ResilienceTest, ClockSkewEatsTheDeadlineBudgetAtTwoShards) {
  ClockSkewEatsTheDeadlineBudget(2);
}

// A request lost to its deadline takes no record index: its degraded
// answer reports where it would have landed, and the next persisted
// entity lands there — the index space stays dense.
TEST_F(ResilienceTest, ExpiredRequestLeavesTheIndexSpaceDenseAtTwoShards) {
  serve::ServerOptions options;
  options.deadline_ms = 100;
  options.degraded_fallback = true;
  TestServer ts = StartServer(options, 2);
  const size_t initial = ts.router->record_count();
  // Stall the owner shard's first job past the deadline; the worker then
  // finds the job cancelled and skips it.
  const size_t owner = ts.router->map().OwnerOf(ResentRecord().location);
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "shard." + std::to_string(owner) + ".stall:after=1,times=1,ms=400",
      &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  const auto expired =
      client.Request("POST", "/v1/link", LinkBody(3000000004));
  ASSERT_TRUE(expired.has_value());
  ASSERT_EQ(expired->status, 200);
  EXPECT_NE(expired->body.find("\"degraded\":true"), std::string::npos)
      << expired->body;
  EXPECT_NE(expired->body.find("\"record_index\":" + std::to_string(initial)),
            std::string::npos)
      << expired->body;
  EXPECT_GE(ts.server->stats().deadline_expired, 1u);

  // Once the stalled job is skipped, the next entity lands at `initial`.
  for (int i = 0; i < 100 && ts.router->node(owner).queue_depth() +
                                     (ts.router->node(owner).busy() ? 1 : 0) >
                                 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto next = client.Request("POST", "/v1/link", LinkBody(3000000005));
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(next->status, 200);
  EXPECT_EQ(next->body.find("\"degraded\":true"), std::string::npos)
      << next->body;
  EXPECT_NE(next->body.find("\"record_index\":" + std::to_string(initial)),
            std::string::npos)
      << next->body;
  EXPECT_EQ(ts.router->record_count(), initial + 1);
  ts.server->Stop();
}

TEST_F(ResilienceTest, InjectedAllocationFailureSheds503) {
  TestServer ts = StartServer();
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec("serve.alloc:every=2",
                                                &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    const auto response = client.Request(
        "POST", "/v1/link", LinkBody(3000000100 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(response.has_value());
    if (response->status == 200) {
      ++ok;
    } else {
      EXPECT_EQ(response->status, 503);
      EXPECT_FALSE(Header(*response, "retry-after").empty());
      ++shed;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(shed, 3);
  ts.server->Stop();
}

TEST_F(ResilienceTest, BreakerOpensUnderSustainedExpiryAndRecovers) {
  serve::ServerOptions options;
  options.deadline_ms = 50;
  options.degraded_fallback = true;
  shard::RouterOptions pipeline;
  pipeline.node.breaker.window = 8;
  pipeline.node.breaker.min_samples = 4;
  pipeline.node.breaker.failure_threshold = 0.5;
  pipeline.node.breaker.open_ms = 200;
  TestServer ts = StartServer(options, 1, pipeline);
  // Every batch stalls past the deadline until disarmed.
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "linker.stall:after=1,ms=120", &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  // Hammer until the breaker opens: expiries feed its failure window.
  bool saw_shed = false;
  for (int i = 0; i < 20 && !saw_shed; ++i) {
    const auto response = client.Request(
        "POST", "/v1/link", LinkBody(3000000200 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(response.has_value());
    if (response->status == 503) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_GE(ts.server->stats().breaker_opens, 1u);

  // Heal the linker; after open_ms a half-open probe closes the breaker
  // and normal answers resume.
  fault::Registry::Global().DisarmAll();
  bool recovered = false;
  for (int i = 0; i < 50 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto response = client.Request(
        "POST", "/v1/link", LinkBody(3000000300 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(response.has_value());
    recovered = response->status == 200 &&
                response->body.find("\"degraded\":true") ==
                    std::string::npos;
  }
  EXPECT_TRUE(recovered);
  ts.server->Stop();
}

TEST_F(ResilienceTest, WatchdogFlagsWedgedLinkerOnHealthzAndRecovers) {
  serve::ServerOptions options;
  options.deadline_ms = 100;
  options.degraded_fallback = true;
  shard::RouterOptions pipeline;
  pipeline.watchdog_ms = 100;
  TestServer ts = StartServer(options, 1, pipeline);
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "linker.stall:after=1,times=1,ms=1000", &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  // Trip the stall (the request itself comes back degraded).
  const auto link =
      client.Request("POST", "/v1/link", LinkBody(3000000400));
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(link->status, 200);

  // The watchdog must flag the wedge while the stall lasts...
  bool wedged = false;
  for (int i = 0; i < 40 && !wedged; ++i) {
    serve::HttpClient probe("127.0.0.1", ts.port());
    ASSERT_TRUE(probe.ok());
    const auto health = probe.Request("GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    if (health->status == 503 &&
        health->body.find("\"status\":\"wedged\"") != std::string::npos) {
      wedged = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(wedged);
  EXPECT_TRUE(ts.server->wedged());
  EXPECT_GE(ts.server->stats().watchdog_trips, 1u);

  // A link request during the wedge is answered degraded, not hung.
  const auto during =
      client.Request("POST", "/v1/link", LinkBody(3000000401));
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->status, 200);
  EXPECT_NE(during->body.find("\"degraded\":true"), std::string::npos);

  // ...and clear once the linker's heartbeat resumes.
  bool healthy = false;
  for (int i = 0; i < 80 && !healthy; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    serve::HttpClient probe("127.0.0.1", ts.port());
    ASSERT_TRUE(probe.ok());
    const auto health = probe.Request("GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    healthy = health->status == 200;
  }
  EXPECT_TRUE(healthy);
  EXPECT_FALSE(ts.server->wedged());
  ts.server->Stop();
}

TEST_F(ResilienceTest, SocketNoiseLeavesRequestHandlingCorrect) {
  // Short reads, EINTR and slow I/O on every socket op (client and
  // server share net.cc, so both sides see the noise): requests must
  // still parse and answer correctly, just slower.
  TestServer ts = StartServer();
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "net.short_read:p=0.2,seed=5;net.read_eintr:every=5;"
      "net.short_write:p=0.2,seed=6;net.write_eintr:every=7;"
      "net.slow_read:p=0.05,ms=5,seed=8",
      &error))
      << error;

  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    const auto response = client.Request(
        "POST", "/v1/link", LinkBody(3000000500 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(response.has_value()) << "request " << i;
    EXPECT_EQ(response->status, 200);
    EXPECT_NE(response->body.find("\"record_index\""), std::string::npos);
  }
  EXPECT_GT(fault::Registry::Global().Firings("net.short_read"), 0u);
  ts.server->Stop();
}

TEST_F(ResilienceTest, DrainCompletesWithFaultsStillArmed) {
  serve::ServerOptions options;
  options.deadline_ms = 100;
  TestServer ts = StartServer(options);
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec(
      "net.short_read:p=0.3,seed=9;linker.stall:after=3,times=1,ms=300",
      &error))
      << error;
  serve::HttpClient client("127.0.0.1", ts.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    client.Request("POST", "/v1/link",
                   LinkBody(3000000600 + static_cast<uint64_t>(i)));
  }
  // Stop() must drain and join every thread despite the armed schedule;
  // a hang here fails via the gtest binary timeout.
  ts.server->Stop();
}

}  // namespace
}  // namespace skyex
