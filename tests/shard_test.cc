// Tests of the spatially sharded serving subsystem (src/shard/):
// shard-map partition/ownership/scatter invariants, the --shards=1
// byte-identity guarantee against the unsharded server, global record
// indexing across appends, and fault-injected graceful degradation.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "fault/fault.h"
#include "geo/distance.h"
#include "geo/point.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"
#include "shard/shard_map.h"

namespace skyex {
namespace {

// Train once; every test re-bootstraps from a copy of the dataset and
// a reload of the saved model text (same idiom as serve_test.cc).
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

// ---------------------------------------------------------------------------
// ShardMap invariants

std::vector<geo::GeoPoint> TestPoints() {
  std::vector<geo::GeoPoint> points = TrainOnce().dataset.Points();
  // A few coordinate-less records, as the Restaurants corpus would have.
  points.push_back(geo::GeoPoint::Invalid());
  points.push_back(geo::GeoPoint::Invalid());
  return points;
}

TEST(ShardMapTest, PartitionsAreCompleteAndDisjoint) {
  const std::vector<geo::GeoPoint> points = TestPoints();
  for (size_t shards : {1u, 3u, 4u, 7u}) {
    shard::ShardMap map(points, shards);
    ASSERT_EQ(map.num_shards(), shards);
    const auto partitions = map.Partitions();
    ASSERT_EQ(partitions.size(), shards);
    std::vector<bool> seen(points.size(), false);
    for (const auto& partition : partitions) {
      for (size_t index : partition) {
        ASSERT_LT(index, points.size());
        EXPECT_FALSE(seen[index]) << "index " << index << " in two shards";
        seen[index] = true;
      }
      // Original order preserved inside a partition.
      EXPECT_TRUE(std::is_sorted(partition.begin(), partition.end()));
    }
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "index " << i << " lost by the partition";
    }
  }
}

TEST(ShardMapTest, OwnerAgreesWithPartitionAndIsDeterministic) {
  const std::vector<geo::GeoPoint> points = TestPoints();
  shard::ShardMap map(points, 4);
  const auto partitions = map.Partitions();
  for (size_t s = 0; s < partitions.size(); ++s) {
    for (size_t index : partitions[s]) {
      EXPECT_EQ(map.OwnerOf(points[index]), s)
          << "record " << index << " partitioned to shard " << s
          << " but OwnerOf routes elsewhere";
      EXPECT_EQ(map.OwnerOf(points[index]), map.OwnerOf(points[index]));
    }
  }
}

TEST(ShardMapTest, InvalidPointsLiveOnShardZeroAndFanOutEverywhere) {
  shard::ShardMap map(TestPoints(), 4);
  EXPECT_EQ(map.OwnerOf(geo::GeoPoint::Invalid()), 0u);
  const auto targets = map.ShardsIntersecting(geo::GeoPoint::Invalid(), 200.0);
  EXPECT_EQ(targets, (std::vector<size_t>{0, 1, 2, 3}));
}

// The load-bearing scatter guarantee: every record within the radius of
// a query lives on a shard the router would scatter to — no pair can be
// lost to the partition, including records sitting exactly on cell
// edges.
TEST(ShardMapTest, ScatterCoversEveryInRadiusCandidate) {
  const std::vector<geo::GeoPoint> points = TestPoints();
  shard::ShardMap map(points, 5);
  const double radius_m = 200.0;
  for (const geo::GeoPoint& query : points) {
    if (!query.valid) continue;
    const std::vector<size_t> targets =
        map.ShardsIntersecting(query, radius_m);
    EXPECT_TRUE(std::binary_search(targets.begin(), targets.end(),
                                   map.OwnerOf(query)));
    for (const geo::GeoPoint& candidate : points) {
      if (!candidate.valid) continue;
      const double d = geo::EquirectangularMeters(query, candidate);
      if (d < 0 || d > radius_m) continue;
      EXPECT_TRUE(std::binary_search(targets.begin(), targets.end(),
                                     map.OwnerOf(candidate)))
          << "candidate at " << d << "m owned by shard "
          << map.OwnerOf(candidate) << " missing from the scatter set";
    }
  }
}

TEST(ShardMapTest, SingleShardOwnsEverythingAndZeroClampsToOne) {
  const std::vector<geo::GeoPoint> points = TestPoints();
  shard::ShardMap one(points, 1);
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.Partitions()[0].size(), points.size());
  for (const geo::GeoPoint& p : points) EXPECT_EQ(one.OwnerOf(p), 0u);
  shard::ShardMap clamped(points, 0);
  EXPECT_EQ(clamped.num_shards(), 1u);
}

TEST(ShardMapTest, MoreShardsThanLeavesLeavesNoShardInvalid) {
  // Tiny pool: one leaf, many shards. Every point still routes inside
  // [0, num_shards) and the scatter set stays within range.
  std::vector<geo::GeoPoint> points = {{57.0, 9.9, true}, {57.0, 9.9, true}};
  shard::ShardMap map(points, 8);
  for (const geo::GeoPoint& p : points) EXPECT_LT(map.OwnerOf(p), 8u);
  for (size_t s : map.ShardsIntersecting(points[0], 500.0)) {
    EXPECT_LT(s, 8u);
  }
}

// ---------------------------------------------------------------------------
// Served differential tests

struct TestDeployment {
  std::unique_ptr<serve::LinkService> service;  // unsharded mode
  std::unique_ptr<shard::Router> router;        // sharded mode
  std::unique_ptr<serve::Server> server;

  uint16_t port() const { return server->port(); }
};

TestDeployment StartUnsharded(serve::ServerOptions options = {}) {
  const Trained& trained = TrainOnce();
  auto model = core::LoadModel(trained.model_text);
  EXPECT_TRUE(model.has_value());
  std::string error;
  TestDeployment d;
  d.service = serve::BootstrapLinkService(trained.dataset, std::move(*model),
                                          {}, &error);
  EXPECT_NE(d.service, nullptr) << error;
  options.port = 0;
  d.server = std::make_unique<serve::Server>(d.service.get(), options);
  EXPECT_TRUE(d.server->Start(&error)) << error;
  return d;
}

TestDeployment StartSharded(size_t shards,
                            serve::ServerOptions options = {},
                            shard::RouterOptions router_options = {}) {
  const Trained& trained = TrainOnce();
  auto model = core::LoadModel(trained.model_text);
  EXPECT_TRUE(model.has_value());
  std::string error;
  TestDeployment d;
  d.router = shard::BootstrapRouter(trained.dataset, std::move(*model), {},
                                    shards, router_options, &error);
  EXPECT_NE(d.router, nullptr) << error;
  d.router->Start();
  options.port = 0;
  d.server = std::make_unique<serve::Server>(d.router.get(), options);
  EXPECT_TRUE(d.server->Start(&error)) << error;
  return d;
}

// A near-duplicate of the i-th located record with a phone: identical
// attributes from the other source, so it must link.
data::SpatialEntity DuplicateEntity(uint64_t id, size_t skip = 0) {
  const Trained& trained = TrainOnce();
  for (size_t i = 0; i < trained.dataset.size(); ++i) {
    const data::SpatialEntity& e = trained.dataset[i];
    if (!e.location.valid || e.phone.empty()) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
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

// The --shards=1 acceptance gate: one shard behind the router must
// produce byte-identical /v1/link and /v1/link_batch responses to the
// unsharded server for the same request sequence (ids pinned via
// X-Request-Id so the echoed request_id member matches too).
TEST(ShardServeTest, SingleShardIsByteIdenticalToUnsharded) {
  TestDeployment unsharded = StartUnsharded();
  TestDeployment sharded = StartSharded(1);
  serve::HttpClient a("127.0.0.1", unsharded.port());
  serve::HttpClient b("127.0.0.1", sharded.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const std::vector<std::pair<std::string, std::string>> requests = {
      {"/v1/link", LinkBody(DuplicateEntity(900001))},
      {"/v1/link", LinkBody(DuplicateEntity(900002, 3))},
      // Links to dataset records AND to the two just-appended entities:
      // covers global indexing of appends on both sides.
      {"/v1/link", LinkBody(DuplicateEntity(900003))},
      {"/v1/link_batch", BatchBody({DuplicateEntity(900004, 1),
                                    DuplicateEntity(900005, 2)})},
      {"/v1/link", LinkBody([] {
         data::SpatialEntity e = DuplicateEntity(900006, 4);
         e.location = geo::GeoPoint::Invalid();  // cartesian fallback
         return e;
       }())},
  };
  int request_number = 0;
  for (const auto& [path, body] : requests) {
    ++request_number;
    const std::string rid = "deadbeef000000" +
                            std::to_string(10 + request_number);
    const auto ra = a.Request("POST", path, body, "application/json",
                              {{"X-Request-Id", rid}});
    const auto rb = b.Request("POST", path, body, "application/json",
                              {{"X-Request-Id", rid}});
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->status, 200) << path;
    EXPECT_EQ(rb->status, 200) << path;
    EXPECT_EQ(ra->body, rb->body)
        << "request " << request_number << " (" << path
        << ") diverged between unsharded and --shards=1";
  }
  EXPECT_EQ(unsharded.service->record_count(), sharded.router->record_count());
}

// Multiple shards must find the same links (the partition only prunes
// provably out-of-radius shards), rank them identically, and merge the
// same golden record.
TEST(ShardServeTest, FourShardsFindTheSameLinksAsUnsharded) {
  TestDeployment unsharded = StartUnsharded();
  TestDeployment sharded = StartSharded(4);
  serve::HttpClient a("127.0.0.1", unsharded.port());
  serve::HttpClient b("127.0.0.1", sharded.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 5; ++i) {
    const std::string body =
        LinkBody(DuplicateEntity(910000 + i, static_cast<size_t>(i)));
    const auto ra = a.Request("POST", "/v1/link", body, "application/json",
                              {{"X-Request-Id", "feed0000000000" +
                                                    std::to_string(10 + i)}});
    const auto rb = b.Request("POST", "/v1/link", body, "application/json",
                              {{"X-Request-Id", "feed0000000000" +
                                                    std::to_string(10 + i)}});
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    ASSERT_EQ(ra->status, 200);
    ASSERT_EQ(rb->status, 200);
    EXPECT_EQ(ra->body, rb->body) << "entity " << i;
  }
}

// A sharded request's /debug/flight timeline carries the shards' whole
// linker record: the prefilter and text-cache numbers too, not only the
// extract and rank times.
TEST(ShardServeTest, FlightTimelineCarriesTheShardLinkerRecord) {
  obs::FlightRecorder::Global().ResetForTest();
  TestDeployment sharded = StartSharded(2);
  serve::HttpClient client("127.0.0.1", sharded.port());
  ASSERT_TRUE(client.ok());
  const auto link = client.Request(
      "POST", "/v1/link", LinkBody(DuplicateEntity(925001)),
      "application/json", {{"X-Request-Id", "00000000cafe0b01"}});
  ASSERT_TRUE(link.has_value());
  ASSERT_EQ(link->status, 200);

  const auto flight = client.Request("GET", "/debug/flight");
  ASSERT_TRUE(flight.has_value());
  std::string error;
  const auto json = obs::json::Parse(flight->body, &error);
  ASSERT_TRUE(json.has_value()) << error;
  const obs::json::Value* ours = nullptr;
  for (const auto& entry : json->Find("recent")->array_v) {
    const auto* rid = entry.Find("request_id");
    if (rid != nullptr && rid->string_v == "00000000cafe0b01") ours = &entry;
  }
  ASSERT_NE(ours, nullptr) << flight->body;
  EXPECT_GE(ours->Find("shards_touched")->number_v, 1.0);
  // Every candidate of a located duplicate went through the text cache.
  EXPECT_GT(ours->Find("lru_hits")->number_v +
                ours->Find("lru_misses")->number_v,
            0.0)
      << flight->body;
  EXPECT_GE(ours->Find("extract_us")->number_v,
            ours->Find("prefilter_us")->number_v);
  EXPECT_GT(ours->Find("extract_us")->number_v +
                ours->Find("rank_us")->number_v,
            0.0);
}

TEST(ShardServeTest, AppendsAreMatchableAcrossRequests) {
  TestDeployment sharded = StartSharded(3);
  const size_t initial = sharded.router->record_count();
  serve::HttpClient client("127.0.0.1", sharded.port());
  ASSERT_TRUE(client.ok());

  const auto first =
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(920001)));
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200);
  std::string error;
  const auto first_json = obs::json::Parse(first->body, &error);
  ASSERT_TRUE(first_json.has_value()) << error;
  const size_t first_index =
      static_cast<size_t>(first_json->Find("record_index")->number_v);
  EXPECT_EQ(first_index, initial);

  // The same duplicate again: it must now ALSO link to the record the
  // first request appended, reported under its global index.
  const auto second =
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(920002)));
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->status, 200);
  const auto second_json = obs::json::Parse(second->body, &error);
  ASSERT_TRUE(second_json.has_value()) << error;
  const auto* links = second_json->Find("links");
  ASSERT_NE(links, nullptr);
  bool linked_to_first = false;
  for (const auto& link : links->array_v) {
    if (static_cast<size_t>(link.Find("record")->number_v) == first_index) {
      linked_to_first = true;
    }
  }
  EXPECT_TRUE(linked_to_first)
      << "second duplicate did not link to the first append at global "
      << "index " << first_index;
  EXPECT_EQ(sharded.router->record_count(), initial + 2);
}

TEST(ShardServeTest, HealthModelAndPerShardMetrics) {
  TestDeployment sharded = StartSharded(4);
  TestDeployment unsharded = StartUnsharded();
  serve::HttpClient client("127.0.0.1", sharded.port());
  ASSERT_TRUE(client.ok());

  const auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  std::string error;
  const auto health_json = obs::json::Parse(health->body, &error);
  ASSERT_TRUE(health_json.has_value()) << error;
  ASSERT_NE(health_json->Find("shards"), nullptr);
  EXPECT_EQ(health_json->Find("shards")->number_v, 4.0);
  EXPECT_EQ(health_json->Find("records")->number_v,
            static_cast<double>(TrainOnce().dataset.size()));

  // Same calibration -> same served model text as the unsharded server.
  const auto model = client.Request("GET", "/model");
  serve::HttpClient uclient("127.0.0.1", unsharded.port());
  const auto umodel = uclient.Request("GET", "/model");
  ASSERT_TRUE(model.has_value());
  ASSERT_TRUE(umodel.has_value());
  EXPECT_EQ(model->body, umodel->body);

  const auto metrics = client.Request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  const auto metrics_json = obs::json::Parse(metrics->body, &error);
  ASSERT_TRUE(metrics_json.has_value()) << error;
  const auto* gauges = metrics_json->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  double records_across_gauges = 0.0;
  for (size_t s = 0; s < 4; ++s) {
    const std::string prefix = "shard/" + std::to_string(s);
    ASSERT_NE(gauges->Find(prefix + "/records"), nullptr) << prefix;
    ASSERT_NE(gauges->Find(prefix + "/queue_depth"), nullptr) << prefix;
    ASSERT_NE(gauges->Find(prefix + "/breaker_state"), nullptr) << prefix;
    ASSERT_NE(gauges->Find(prefix + "/wedged"), nullptr) << prefix;
    records_across_gauges += gauges->Find(prefix + "/records")->number_v;
  }
  EXPECT_EQ(records_across_gauges,
            static_cast<double>(TrainOnce().dataset.size()));
}

// /healthz reports the jobs queued on the shards. One shard takes one
// job at a time and stalls on each, so concurrent requests wait in its
// queue while a probe reads the depth.
TEST(ShardServeTest, HealthzReportsTheShardsQueueDepth) {
  shard::RouterOptions router_options;
  router_options.node.max_batch = 1;
  TestDeployment sharded = StartSharded(1, {}, router_options);
  std::string error;
  ASSERT_TRUE(
      fault::Registry::Global().ArmSpec("shard.stall:after=1,ms=150", &error))
      << error;
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&sharded, i] {
      serve::HttpClient client("127.0.0.1", sharded.port());
      const auto response = client.Request(
          "POST", "/v1/link", LinkBody(DuplicateEntity(950001 + i)));
      EXPECT_TRUE(response.has_value() && response->status == 200);
    });
  }
  serve::HttpClient probe("127.0.0.1", sharded.port());
  ASSERT_TRUE(probe.ok());
  double max_depth = 0.0;
  for (int i = 0; i < 100 && max_depth == 0.0; ++i) {
    const auto health = probe.Request("GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    const auto json = obs::json::Parse(health->body, &error);
    ASSERT_TRUE(json.has_value()) << error;
    max_depth = std::max(max_depth, json->Find("queue_depth")->number_v);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& client : clients) client.join();
  fault::Registry::Global().DisarmAll();
  EXPECT_GT(max_depth, 0.0);
}

TEST(ShardServeTest, FailedShardDegradesInsteadOfFailing) {
  TestDeployment sharded = StartSharded(2);
  serve::HttpClient client("127.0.0.1", sharded.port());
  ASSERT_TRUE(client.ok());

  // A coordinate-less entity fans out to both shards (owner: shard 0).
  // Shard 0 erroring on every job must degrade the response — shard 1's
  // answer still arrives and the request still succeeds.
  std::string error;
  ASSERT_TRUE(
      fault::Registry::Global().ArmSpec("shard.0.error:p=1", &error))
      << error;
  data::SpatialEntity entity = DuplicateEntity(930001);
  entity.location = geo::GeoPoint::Invalid();
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(entity));
  fault::Registry::Global().DisarmAll();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"degraded\":true"), std::string::npos)
      << response->body;

  // With the fault gone the next request is served cleanly again.
  const auto healthy =
      client.Request("POST", "/v1/link", LinkBody(DuplicateEntity(930002)));
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ(healthy->status, 200);
}

TEST(ShardServeTest, AllShardsFailingFallsBackToTheBareEntity) {
  TestDeployment sharded = StartSharded(2);
  serve::HttpClient client("127.0.0.1", sharded.port());
  ASSERT_TRUE(client.ok());
  std::string error;
  ASSERT_TRUE(fault::Registry::Global().ArmSpec("shard.error:p=1", &error))
      << error;
  const data::SpatialEntity entity = DuplicateEntity(940001);
  const auto response =
      client.Request("POST", "/v1/link", LinkBody(entity));
  fault::Registry::Global().DisarmAll();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  std::string parse_error;
  const auto json = obs::json::Parse(response->body, &parse_error);
  ASSERT_TRUE(json.has_value()) << parse_error;
  EXPECT_NE(json->Find("degraded"), nullptr);
  EXPECT_TRUE(json->Find("links")->array_v.empty());
  // The merged record falls back to the entity itself.
  EXPECT_EQ(json->Find("merged")->Find("name")->string_v, entity.name);
}

}  // namespace
}  // namespace skyex
