// Golden responses of the unsharded server. A fixed request sequence
// with pinned X-Request-Ids runs against a fresh server on the
// ResilienceTest world (500 North-DK records, seed 11), and every
// response body must equal the bytes recorded below. The sequence
// covers two single links, one /v1/link_batch, a coordinate-less
// (Cartesian) arrival, and two deadline-expired requests that the
// degraded path answers while the linker is stalled: one located, one
// without coordinates, each with degraded links. The bodies pin the
// links, their order, the merged golden record and the record indices,
// so a refactor of the serving pipeline cannot change a response
// without failing here.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "fault/fault.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/server.h"
#include "serve/service.h"

namespace skyex {
namespace {

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

// The `skip`-th located record with a phone, re-sourced under `id`: a
// duplicate that links on the full path and matches its own name on
// the degraded one.
data::SpatialEntity Duplicate(uint64_t id, size_t skip) {
  const Trained& trained = TrainOnce();
  for (const data::SpatialEntity& e : trained.dataset.entities) {
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

data::SpatialEntity WithoutCoordinates(data::SpatialEntity e) {
  e.location = geo::GeoPoint::Invalid();
  return e;
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

struct GoldenRequest {
  const char* request_id;
  const char* path;
  std::string body;
  // Stall the linker and skew the deadline clock first, so the request
  // expires at once and the degraded path answers it.
  bool expire = false;
};

std::vector<GoldenRequest> Sequence() {
  return {
      {"00000000601d0001", "/v1/link", LinkBody(Duplicate(960001, 0))},
      {"00000000601d0002", "/v1/link", LinkBody(Duplicate(960002, 3))},
      {"00000000601d0003", "/v1/link_batch",
       BatchBody({Duplicate(960003, 0), Duplicate(960004, 5)})},
      {"00000000601d0004", "/v1/link",
       LinkBody(WithoutCoordinates(Duplicate(960005, 7)))},
      {"00000000601d0005", "/v1/link", LinkBody(Duplicate(960006, 0)),
       /*expire=*/true},
      {"00000000601d0006", "/v1/link",
       LinkBody(WithoutCoordinates(Duplicate(960007, 3))), /*expire=*/true},
  };
}

// Replays Sequence() against a fresh unsharded server and returns each
// response body, prefixed by its status line ("200 ").
std::vector<std::string> Replay() {
  const Trained& trained = TrainOnce();
  auto model = core::LoadModel(trained.model_text);
  EXPECT_TRUE(model.has_value());
  std::string error;
  std::unique_ptr<serve::LinkService> service = serve::BootstrapLinkService(
      trained.dataset, std::move(*model), {}, &error);
  EXPECT_NE(service, nullptr) << error;
  serve::ServerOptions options;
  options.port = 0;
  // Generous, so that only the injected clock skew expires a request.
  options.deadline_ms = 5000;
  options.degraded_fallback = true;
  serve::Server server(service.get(), options);
  EXPECT_TRUE(server.Start(&error)) << error;

  std::vector<std::string> bodies;
  serve::HttpClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok());
  bool armed = false;
  for (const GoldenRequest& request : Sequence()) {
    if (request.expire && !armed) {
      // The skew zeroes the wait budget; the stall keeps the linker from
      // answering before the handler polls. The second expiring request
      // queues behind the same stall.
      armed = fault::Registry::Global().ArmSpec(
          "serve.clock_skew:after=1,ms=10000;"
          "linker.stall:after=1,times=1,ms=2000",
          &error);
      EXPECT_TRUE(armed) << error;
    }
    const auto response =
        client.Request("POST", request.path, request.body,
                       "application/json",
                       {{"X-Request-Id", request.request_id}});
    EXPECT_TRUE(response.has_value()) << request.request_id;
    bodies.push_back(response.has_value()
                         ? std::to_string(response->status) + " " +
                               response->body
                         : std::string("no response"));
  }
  // Stop joins the linker thread before the points are disarmed:
  // disarming frees a point's state, which a firing thread reads.
  server.Stop();
  fault::Registry::Global().DisarmAll();
  return bodies;
}

// Recorded from the server before the degraded path read the linker's
// records through its grid and before LinkMany linked through
// MatchScored.
const char* const kGolden[] = {
    R"(200 {"request_id":"00000000601d0001","record_index":500,)"
    R"("links":[{"record":0,"id":481,"name":"salon bølgen","source":"Krak"}],)"
    R"("merged":{"id":481,"source":"Krak","name":"salon bølgen",)"
    R"("address_name":"ringvejen","address_number":87,"phone":"+4520000308",)"
    R"("website":"www.salonboelgen308.dk","categories":["restaurant"],)"
    R"("lat":56.882962246784935,"lon":10.183173812822059}})",
    R"(200 {"request_id":"00000000601d0002","record_index":501,)"
    R"("links":[{"record":3,"id":174,"name":"bageri strandgaarden",)"
    R"("source":"GP"},{"record":163,"id":173,"name":"bageri strandgaarden",)"
    R"("source":"Krak"}],"merged":{"id":174,"source":"GP",)"
    R"("name":"bageri strandgaarden","address_name":"galleri kirkegade",)"
    R"("address_number":118,"phone":"+4520000087",)"
    R"("website":"www.bageristrandgaarden87.dk","categories":["butik"],)"
    R"("lat":57.050759765379951,"lon":9.9203946003023304}})",
    R"(200 {"request_id":"00000000601d0003","results":[{"record_index":502,)"
    R"("links":[{"record":0,"id":481,"name":"salon bølgen","source":"Krak"},)"
    R"({"record":500,"id":960001,"name":"salon bølgen","source":"Yelp"}],)"
    R"("merged":{"id":481,"source":"Krak","name":"salon bølgen",)"
    R"("address_name":"ringvejen","address_number":87,"phone":"+4520000308",)"
    R"("website":"www.salonboelgen308.dk","categories":["restaurant"],)"
    R"("lat":56.882962246784935,"lon":10.183173812822059}},)"
    R"({"record_index":503,"links":[{"record":5,"id":196,)"
    R"("name":"hotel anker","source":"GP"},{"record":95,"id":195,)"
    R"("name":"hotel anker","source":"Krak"}],"merged":{"id":196,)"
    R"("source":"GP","name":"hotel anker","address_name":"cafe ahdsundvej",)"
    R"("address_number":66,"phone":"+4570000015",)"
    R"("website":"www.hotelanker98.dk","categories":["kiosk"],)"
    R"("lat":57.440196906031616,"lon":10.53456789804507}}]})",
    R"(200 {"request_id":"00000000601d0004","record_index":504,)"
    R"("links":[{"record":7,"id":370,"name":"tandlægeen","source":"Krak"},)"
    R"({"record":492,"id":61,"name":"tandlægeen","source":"Krak"},)"
    R"({"record":366,"id":355,"name":"tandlæge amelie","source":"GP"}],)"
    R"("merged":{"id":370,"source":"Krak","name":"tandlæge amelie",)"
    R"("address_name":"strandvejen","address_number":82,)"
    R"("phone":"+4520000197","website":"www.tandlaegeen197.dk",)"
    R"("categories":["frisør","grill"],"lat":57.356749547796483,)"
    R"("lon":9.1406645029363034}})",
    R"(200 {"request_id":"00000000601d0005","record_index":505,)"
    R"("degraded":true,"links":[{"record":0,"id":481,"name":"salon bølgen",)"
    R"("source":"Krak"},{"record":500,"id":960001,"name":"salon bølgen",)"
    R"("source":"Yelp"},{"record":502,"id":960003,"name":"salon bølgen",)"
    R"("source":"Yelp"}],"merged":{"id":960006,"source":"Yelp",)"
    R"("name":"salon bølgen","address_name":"ringvejen","address_number":87,)"
    R"("phone":"+4520000308","website":"www.salonboelgen308.dk",)"
    R"("categories":["restaurant"],"lat":56.882962246784935,)"
    R"("lon":10.183173812822059}})",
    R"(200 {"request_id":"00000000601d0006","record_index":505,)"
    R"("degraded":true,"links":[{"record":3,"id":174,)"
    R"("name":"bageri strandgaarden","source":"GP"},{"record":163,"id":173,)"
    R"("name":"bageri strandgaarden","source":"Krak"},{"record":277,"id":95,)"
    R"("name":"galleri strandgaarden","source":"Krak"},{"record":438,"id":96,)"
    R"("name":"galleri strandgaarden","source":"GP"},{"record":501,)"
    R"("id":960002,"name":"bageri strandgaarden","source":"Yelp"}],)"
    R"("merged":{"id":960007,"source":"Yelp","name":"bageri strandgaarden",)"
    R"("address_name":"galleri kirkegade","address_number":118,)"
    R"("phone":"+4520000087","website":"www.bageristrandgaarden87.dk",)"
    R"("categories":["butik"]}})",
};

class ServeGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::Global().DisarmAll(); }
  void TearDown() override { fault::Registry::Global().DisarmAll(); }
};

TEST_F(ServeGoldenTest, ResponsesMatchTheRecordedBytes) {
  const std::vector<std::string> bodies = Replay();
  ASSERT_EQ(bodies.size(), std::size(kGolden));
  for (size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i], kGolden[i]) << "response " << i + 1;
  }
}

}  // namespace
}  // namespace skyex
