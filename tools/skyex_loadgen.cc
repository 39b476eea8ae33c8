// skyex_loadgen — closed-loop load generator for skyex_serve.
//
//   skyex_loadgen --port=8080 --requests=1000 --connections=4 \
//                 --dataset=entities.csv
//
// Each connection thread sends link requests back-to-back (closed
// loop), sampling entities from the dataset (or a generated North-DK
// pool) with fresh ids. Latencies feed the obs histogram
// `loadgen/request_latency_us`; the summary reports request and link
// throughput (entities/s plus server-side candidate pairs/s, deltaed
// from the server's /metrics) and p50/p95/p99 from that histogram.
// 429/503 responses are counted and retried with *full-jitter*
// exponential backoff (uniform in [0, min(cap, base·2^attempt)],
// honoring the server's Retry-After as the cap) — deterministic
// backoff would march every shed client back in lockstep. --max-retries
// bounds the retries per request; exhausted requests are reported
// separately, as are degraded ("degraded":true) responses.
//
// --smoke runs a single-request validation pass instead: happy-path
// link, batch link, /healthz, /model and /metrics responses are checked
// structurally — the serve_smoke ctest drives this.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "data/northdk_generator.h"
#include "flags.h"
#include "par/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/service.h"

namespace {

using skyex::serve::HttpClient;
using skyex::serve::HttpResponse;
using skyex::tools::FlagType;
using skyex::tools::Flags;

constexpr char kLatencyMetric[] = "loadgen/request_latency_us";

int Usage() {
  std::fprintf(
      stderr,
      "usage: skyex_loadgen --port=N [flags]\n\n"
      "  --host=H          server host (default 127.0.0.1)\n"
      "  --requests=N      total requests, shared by connections "
      "(default 1000)\n"
      "  --connections=N   concurrent closed-loop connections (default "
      "4)\n"
      "  --batch-size=N    entities per request; >1 uses /v1/link_batch "
      "(default 1)\n"
      "  --dataset=FILE    CSV pool of entities to send (default: a "
      "generated\n"
      "                    North-DK pool, see --entities/--seed)\n"
      "  --entities=N      generated pool size (default 500)\n"
      "  --seed=N          generator seed (default 97)\n"
      "  --backoff-ms=N    base of the full-jitter backoff before\n"
      "                    retrying a 429/503 (default 10)\n"
      "  --max-retries=N   retries per request before giving up\n"
      "                    (default 8)\n"
      "  --timeout-ms=N    per-request socket timeout (default 10000)\n"
      "  --smoke           validation pass instead of load\n"
      "  --hotspot=F       region-skewed traffic: fraction F of requests\n"
      "                    sample from the geographic hotspot instead of\n"
      "                    round-robin (default 0 = uniform; exercises\n"
      "                    uneven shard load under --shards serving)\n"
      "  --hotspot-share=S the hotspot is the first S fraction of the\n"
      "                    pool ordered by (lat,lon) (default 0.1)\n"
      "  --fail-on-error-rate=P  tolerate errors up to rate P: exit 1\n"
      "                    only when (error responses + io errors +\n"
      "                    retry-exhausted) / outcomes exceeds P, instead\n"
      "                    of the default zero-error acceptance\n"
      "  --drift-name=S    synthetic drift: append ' S' to every pool\n"
      "                    entity name (exercises the server's drift\n"
      "                    detector; docs/observability.md)\n"
      "  --drift-lat=D     synthetic drift: shift every pool latitude by\n"
      "                    D degrees (clamped to [-90, 90])\n\n"
      "runtime: --threads=N   shared thread pool size\n"
      "profiling: --cpu-profile=FILE --profile-hz=N   collapsed-stack\n"
      "           CPU profile of the client side of the run\n"
      "observability: --trace-out --metrics-out --log-level "
      "--obs-summary\n");
  return 2;
}

std::string LinkBody(const std::vector<skyex::data::SpatialEntity>& pool,
                     size_t first, size_t count, uint64_t id_base) {
  skyex::serve::json::Writer writer;
  writer.BeginObject();
  if (count == 1) {
    writer.Key("entity");
    skyex::data::SpatialEntity e = pool[first % pool.size()];
    e.id = id_base + first;
    skyex::serve::WriteEntityJson(&writer, e);
  } else {
    writer.Key("entities").BeginArray();
    for (size_t i = 0; i < count; ++i) {
      skyex::data::SpatialEntity e = pool[(first + i) % pool.size()];
      e.id = id_base + first + i;
      skyex::serve::WriteEntityJson(&writer, e);
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

/// LinkBody with an explicit pool index per entity (hotspot sampling);
/// ids stay serial from `serial_base` so every request carries fresh
/// ids regardless of which pool entities were drawn.
std::string LinkBodyIndexed(
    const std::vector<skyex::data::SpatialEntity>& pool,
    const std::vector<size_t>& indices, size_t serial_base,
    uint64_t id_base) {
  skyex::serve::json::Writer writer;
  writer.BeginObject();
  if (indices.size() == 1) {
    writer.Key("entity");
    skyex::data::SpatialEntity e = pool[indices[0]];
    e.id = id_base + serial_base;
    skyex::serve::WriteEntityJson(&writer, e);
  } else {
    writer.Key("entities").BeginArray();
    for (size_t i = 0; i < indices.size(); ++i) {
      skyex::data::SpatialEntity e = pool[indices[i]];
      e.id = id_base + serial_base + i;
      skyex::serve::WriteEntityJson(&writer, e);
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

/// Server-side work counters snapshotted from /metrics; deltaed across
/// a run to report what the linker actually did. `pairs` counts
/// candidates BEFORE the sketch pre-filter, so pairs/sec improvements
/// from dropping candidates show up as throughput, not vanished work.
struct ServerWork {
  double pairs = 0.0;       // core/incremental_candidates
  double dropped = 0.0;     // extract/prefilter_dropped
  double lru_hits = 0.0;    // extract/lru_hits
  double lru_misses = 0.0;  // extract/lru_misses
  // quality/* gauges, present when the server runs with quality
  // observability enabled (--audit-log / --quality-profile).
  bool quality = false;
  double audit_sampled = 0.0;
  double audit_written = 0.0;
  double audit_dropped = 0.0;
  double psi_feature_max = 0.0;
  double ks_score = 0.0;
  double psi_lat = 0.0;
  double drift_trips = 0.0;
};

/// One /metrics round-trip for every counter of interest; counters the
/// server has not registered read as 0.
std::optional<ServerWork> FetchServerWork(const std::string& host,
                                          uint16_t port, int timeout_ms) {
  HttpClient client(host, port, timeout_ms);
  if (!client.ok()) return std::nullopt;
  const auto response = client.Request("GET", "/metrics");
  if (!response.has_value() || response->status != 200) return std::nullopt;
  std::string error;
  const auto json = skyex::obs::json::Parse(response->body, &error);
  if (!json.has_value()) return std::nullopt;
  const auto* counters = json->Find("counters");
  if (counters == nullptr) return std::nullopt;
  const auto read = [counters](const char* name) {
    const auto* counter = counters->Find(name);
    return counter != nullptr ? counter->number_v : 0.0;
  };
  ServerWork work;
  work.pairs = read("core/incremental_candidates");
  work.dropped = read("extract/prefilter_dropped");
  work.lru_hits = read("extract/lru_hits");
  work.lru_misses = read("extract/lru_misses");
  const auto* gauges = json->Find("gauges");
  if (gauges != nullptr &&
      (gauges->Find("quality/audit_attempts") != nullptr ||
       gauges->Find("quality/drift_trips") != nullptr)) {
    const auto gauge = [gauges](const char* name) {
      const auto* value = gauges->Find(name);
      return value != nullptr ? value->number_v : 0.0;
    };
    work.quality = true;
    work.audit_sampled = gauge("quality/audit_sampled");
    work.audit_written = gauge("quality/audit_written");
    work.audit_dropped = gauge("quality/audit_dropped");
    work.psi_feature_max = gauge("quality/psi_feature_max");
    work.ks_score = gauge("quality/ks_score");
    work.psi_lat = gauge("quality/psi_lat");
    work.drift_trips = gauge("quality/drift_trips");
  }
  return work;
}

struct LoadCounters {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> rejected{0};       // 429/503 responses (retried)
  std::atomic<uint64_t> client_errors{0};  // other 4xx/5xx
  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> degraded{0};        // "degraded":true answers
  std::atomic<uint64_t> retry_exhausted{0};  // gave up after max retries
};

constexpr size_t kSlowestK = 10;

/// One completed request, keyed by the server's echoed X-Request-Id —
/// the handle for looking the request up in /debug/flight or as a
/// /metrics exemplar.
struct SlowSample {
  double us = 0.0;
  std::string request_id;
};

/// Keeps `samples` holding the top-`kSlowestK` slowest, sorted
/// descending by latency. Called per response on a single thread; the
/// per-thread lists are merged after the joins.
void NoteSlowSample(std::vector<SlowSample>* samples, double us,
                    const HttpResponse& response) {
  if (samples->size() >= kSlowestK && us <= samples->back().us) return;
  SlowSample sample;
  sample.us = us;
  for (const auto& [key, value] : response.extra_headers) {
    if (key == "x-request-id") {
      sample.request_id = value;
      break;
    }
  }
  const auto pos = std::upper_bound(
      samples->begin(), samples->end(), sample,
      [](const SlowSample& a, const SlowSample& b) { return a.us > b.us; });
  samples->insert(pos, std::move(sample));
  if (samples->size() > kSlowestK) samples->resize(kSlowestK);
}

/// Retry-After (seconds) from a response's headers, or 0 when absent.
int RetryAfterSeconds(const HttpResponse& response) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == "retry-after") return std::atoi(value.c_str());
  }
  return 0;
}

void LoadLoop(const std::string& host, uint16_t port, int timeout_ms,
              const std::vector<skyex::data::SpatialEntity>* pool,
              size_t first_request, size_t num_requests, size_t batch_size,
              int backoff_ms, size_t max_retries, double hotspot,
              const std::vector<size_t>* hotspot_indices,
              LoadCounters* counters, std::vector<SlowSample>* slowest) {
  const std::string path =
      batch_size > 1 ? "/v1/link_batch" : "/v1/link";
  HttpClient client(host, port, timeout_ms);
  // Deterministic per-thread jitter stream: the threads' streams differ
  // (seeded by their request range) but a run replays exactly.
  uint64_t jitter_state = 0x10adbeef ^ (first_request + 1);
  uint64_t pick_state = 0x4053 ^ (first_request * 2654435761ULL + 1);
  std::vector<size_t> indices(batch_size);
  for (size_t r = 0; r < num_requests; ++r) {
    const size_t serial_base = (first_request + r) * batch_size;
    for (size_t i = 0; i < batch_size; ++i) {
      indices[i] = (serial_base + i) % pool->size();
      if (hotspot > 0.0 && !hotspot_indices->empty()) {
        pick_state = skyex::par::SplitMix64(pick_state);
        if ((pick_state >> 11) * 0x1.0p-53 < hotspot) {
          pick_state = skyex::par::SplitMix64(pick_state);
          indices[i] = (*hotspot_indices)[pick_state %
                                          hotspot_indices->size()];
        }
      }
    }
    const std::string body =
        LinkBodyIndexed(*pool, indices, serial_base, 1000000000);
    size_t attempt = 0;
    for (;;) {
      if (!client.ok()) {
        client = HttpClient(host, port, timeout_ms);
        if (!client.ok()) {
          counters->io_errors.fetch_add(1);
          return;  // server gone; stop this connection
        }
      }
      const auto start = std::chrono::steady_clock::now();
      const std::optional<HttpResponse> response =
          client.Request("POST", path, body);
      const double us =
          std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (!response.has_value()) {
        counters->io_errors.fetch_add(1);
        break;
      }
      if (response->status == 429 || response->status == 503) {
        counters->rejected.fetch_add(1);
        if (attempt >= max_retries) {
          counters->retry_exhausted.fetch_add(1);
          break;
        }
        // Full jitter: uniform in [0, cap] where cap doubles per
        // attempt up to the server's Retry-After (when present).
        // Everyone sleeping exactly backoff_ms would re-herd the whole
        // shed cohort onto the server in one instant.
        int64_t cap_ms =
            static_cast<int64_t>(backoff_ms) << std::min<size_t>(attempt, 10);
        const int retry_after_s = RetryAfterSeconds(*response);
        if (retry_after_s > 0) {
          cap_ms = std::min<int64_t>(cap_ms, retry_after_s * 1000);
        }
        cap_ms = std::max<int64_t>(1, cap_ms);
        jitter_state = skyex::par::SplitMix64(jitter_state);
        const int64_t sleep_ms =
            static_cast<int64_t>(jitter_state % (cap_ms + 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        ++attempt;
        continue;  // closed loop: retry the same request
      }
      SKYEX_HISTOGRAM_OBSERVE_US(kLatencyMetric, us);
      NoteSlowSample(slowest, us, *response);
      if (response->status == 200) {
        counters->ok.fetch_add(1);
        if (response->body.find("\"degraded\":true") != std::string::npos) {
          counters->degraded.fetch_add(1);
        }
      } else {
        counters->client_errors.fetch_add(1);
      }
      break;
    }
  }
}

#define SMOKE_CHECK(cond, what)                                          \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "smoke: FAIL — %s\n", what);                  \
      return 1;                                                          \
    }                                                                    \
    std::fprintf(stderr, "smoke: ok — %s\n", what);                      \
  } while (0)

int RunSmoke(const std::string& host, uint16_t port, int timeout_ms,
             const std::vector<skyex::data::SpatialEntity>& pool) {
  using skyex::obs::json::Parse;
  HttpClient client(host, port, timeout_ms);
  SMOKE_CHECK(client.ok(), "connected to the server");

  auto health = client.Request("GET", "/healthz");
  SMOKE_CHECK(health.has_value() && health->status == 200,
              "/healthz answers 200");
  std::string error;
  auto health_json = Parse(health->body, &error);
  SMOKE_CHECK(health_json.has_value() &&
                  health_json->Find("status") != nullptr &&
                  health_json->Find("records") != nullptr &&
                  health_json->Find("records")->number_v > 0,
              "/healthz body has status and a positive record count");

  const auto link = client.Request("POST", "/v1/link",
                                   LinkBody(pool, 0, 1, 1000000000));
  SMOKE_CHECK(link.has_value() && link->status == 200,
              "/v1/link answers 200");
  const auto link_json = Parse(link->body, &error);
  SMOKE_CHECK(link_json.has_value(), "/v1/link body is valid JSON");
  SMOKE_CHECK(link_json->Find("record_index") != nullptr &&
                  link_json->Find("record_index")->is_number(),
              "link response has record_index");
  SMOKE_CHECK(link_json->Find("links") != nullptr &&
                  link_json->Find("links")->is_array(),
              "link response has a links array");
  const auto* merged = link_json->Find("merged");
  SMOKE_CHECK(merged != nullptr && merged->is_object() &&
                  merged->Find("name") != nullptr &&
                  !merged->Find("name")->string_v.empty(),
              "link response has a merged golden record");

  const auto batch = client.Request("POST", "/v1/link_batch",
                                    LinkBody(pool, 1, 2, 1000000000));
  SMOKE_CHECK(batch.has_value() && batch->status == 200,
              "/v1/link_batch answers 200");
  const auto batch_json = Parse(batch->body, &error);
  SMOKE_CHECK(batch_json.has_value() &&
                  batch_json->Find("results") != nullptr &&
                  batch_json->Find("results")->array_v.size() == 2,
              "batch response has 2 results");

  const auto model = client.Request("GET", "/model");
  SMOKE_CHECK(model.has_value() && model->status == 200 &&
                  model->body.find("preference: ") != std::string::npos &&
                  model->body.find("cutoff_ratio: ") != std::string::npos,
              "/model serves the model text");

  bool echoed_id = false;
  for (const auto& [key, value] : link->extra_headers) {
    if (key == "x-request-id" && !value.empty()) echoed_id = true;
  }
  SMOKE_CHECK(echoed_id, "/v1/link echoes an X-Request-Id header");

  const auto metrics = client.Request("GET", "/metrics");
  SMOKE_CHECK(metrics.has_value() && metrics->status == 200,
              "/metrics answers 200");
  const auto metrics_json = Parse(metrics->body, &error);
  SMOKE_CHECK(metrics_json.has_value(), "/metrics body is valid JSON");
  const auto* counters = metrics_json->Find("counters");
  SMOKE_CHECK(counters != nullptr &&
                  counters->Find("serve/http_requests") != nullptr &&
                  counters->Find("serve/http_requests")->number_v >= 3,
              "serve/http_requests counter is advancing");
  SMOKE_CHECK(counters->Find("serve/link_requests") != nullptr &&
                  counters->Find("serve/link_requests")->number_v >= 3,
              "serve/link_requests counter is advancing");
  const auto* histograms = metrics_json->Find("histograms");
  SMOKE_CHECK(histograms != nullptr &&
                  histograms->Find("serve/request_latency_us") != nullptr,
              "serve/request_latency_us histogram exists");
  const auto* gauges = metrics_json->Find("gauges");
  SMOKE_CHECK(gauges != nullptr &&
                  gauges->Find("par/pool_threads") != nullptr &&
                  gauges->Find("par/pool_threads")->number_v >= 1,
              "par/pool_threads gauge reports the pool size");

  const auto prom = client.Request("GET", "/metrics?format=prometheus");
  SMOKE_CHECK(prom.has_value() && prom->status == 200 &&
                  prom->body.find("# TYPE skyex_serve_http_requests "
                                  "counter") != std::string::npos,
              "/metrics?format=prometheus serves text format");

  const auto flight = client.Request("GET", "/debug/flight");
  SMOKE_CHECK(flight.has_value() && flight->status == 200,
              "/debug/flight answers 200");
  const auto flight_json = Parse(flight->body, &error);
  SMOKE_CHECK(flight_json.has_value() &&
                  flight_json->Find("recent") != nullptr &&
                  !flight_json->Find("recent")->array_v.empty(),
              "/debug/flight has recent request timelines");

  std::fprintf(stderr, "smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (skyex::tools::HandleVersion(argc, argv, "skyex_loadgen")) return 0;
  const auto flags = skyex::tools::ParseFlags(
      argc, argv, 1,
      {{"host", FlagType::kString},
       {"port", FlagType::kSize},
       {"requests", FlagType::kSize},
       {"connections", FlagType::kSize},
       {"batch-size", FlagType::kSize},
       {"dataset", FlagType::kString},
       {"entities", FlagType::kSize},
       {"seed", FlagType::kSize},
       {"backoff-ms", FlagType::kSize},
       {"max-retries", FlagType::kSize},
       {"timeout-ms", FlagType::kSize},
       {"smoke", FlagType::kBool},
       {"hotspot", FlagType::kDouble},
       {"hotspot-share", FlagType::kDouble},
       {"fail-on-error-rate", FlagType::kDouble},
       {"drift-name", FlagType::kString},
       {"drift-lat", FlagType::kDouble}});
  if (!flags.has_value()) return Usage();
  if (!skyex::tools::ObsSetup(*flags)) return 2;
  if (!flags->Has("port")) {
    std::fprintf(stderr, "error: --port is required\n");
    return Usage();
  }
  const auto host = flags->Get("host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(flags->GetSize("port", 0));
  const int timeout_ms =
      static_cast<int>(flags->GetSize("timeout-ms", 10000));

  std::vector<skyex::data::SpatialEntity> pool;
  const std::string dataset_path = flags->Get("dataset");
  if (!dataset_path.empty()) {
    skyex::data::Dataset dataset;
    if (!skyex::data::ReadDatasetCsv(dataset_path, &dataset)) {
      std::fprintf(stderr, "error: cannot read %s\n",
                   dataset_path.c_str());
      return 1;
    }
    pool = std::move(dataset.entities);
  } else {
    skyex::data::NorthDkOptions options;
    options.num_entities = flags->GetSize("entities", 500);
    options.seed = flags->GetSize("seed", 97);
    pool = skyex::data::GenerateNorthDk(options).entities;
  }
  if (pool.empty()) {
    std::fprintf(stderr, "error: entity pool is empty\n");
    return 1;
  }

  // Synthetic drift: distort the pool before any request is built, so a
  // --drift-* run feeds the server traffic whose name / coordinate
  // distribution departs from what its reference profile saw.
  const std::string drift_name = flags->Get("drift-name");
  const double drift_lat = flags->GetDouble("drift-lat", 0.0);
  if (!drift_name.empty() || drift_lat != 0.0) {
    for (auto& e : pool) {
      if (!drift_name.empty()) e.name += " " + drift_name;
      if (drift_lat != 0.0 && e.location.valid) {
        e.location.lat =
            std::clamp(e.location.lat + drift_lat, -90.0, 90.0);
      }
    }
    std::fprintf(stderr,
                 "loadgen: drifted pool (name-suffix='%s', lat-shift=%g)\n",
                 drift_name.c_str(), drift_lat);
  }

  if (flags->Has("smoke")) {
    const int rc = RunSmoke(host, port, timeout_ms, pool);
    const int obs_rc = skyex::tools::ObsFinish(*flags);
    return rc != 0 ? rc : obs_rc;
  }

  const size_t requests = flags->GetSize("requests", 1000);
  const size_t connections =
      std::max<size_t>(1, flags->GetSize("connections", 4));
  const size_t batch_size =
      std::max<size_t>(1, flags->GetSize("batch-size", 1));
  const int backoff_ms =
      static_cast<int>(flags->GetSize("backoff-ms", 10));
  const size_t max_retries = flags->GetSize("max-retries", 8);

  // Hotspot sampling: the "hotspot" is the geographically densest-named
  // corner of the pool — its first `share` fraction ordered by
  // (lat, lon). Under --shards serving this concentrates traffic on few
  // shards, exercising uneven scatter load.
  const double hotspot =
      std::clamp(flags->GetDouble("hotspot", 0.0), 0.0, 1.0);
  std::vector<size_t> hotspot_indices;
  if (hotspot > 0.0) {
    const double share =
        std::clamp(flags->GetDouble("hotspot-share", 0.1), 0.0, 1.0);
    std::vector<size_t> order(pool.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&pool](size_t a, size_t b) {
      const auto& pa = pool[a].location;
      const auto& pb = pool[b].location;
      if (pa.lat != pb.lat) return pa.lat < pb.lat;
      if (pa.lon != pb.lon) return pa.lon < pb.lon;
      return a < b;
    });
    const size_t count = std::min(
        order.size(),
        std::max<size_t>(
            1, static_cast<size_t>(share *
                                   static_cast<double>(order.size()))));
    hotspot_indices.assign(order.begin(), order.begin() + count);
    std::fprintf(stderr,
                 "loadgen: hotspot=%0.2f over %zu of %zu pool entities\n",
                 hotspot, hotspot_indices.size(), pool.size());
  }

  LoadCounters counters;
  const std::optional<ServerWork> work_before =
      FetchServerWork(host, port, timeout_ms);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  std::vector<std::vector<SlowSample>> per_thread_slowest(connections);
  const auto start = std::chrono::steady_clock::now();
  size_t assigned = 0;
  for (size_t c = 0; c < connections; ++c) {
    const size_t share =
        requests / connections + (c < requests % connections ? 1 : 0);
    threads.emplace_back(LoadLoop, host, port, timeout_ms, &pool, assigned,
                         share, batch_size, backoff_ms, max_retries,
                         hotspot, &hotspot_indices, &counters,
                         &per_thread_slowest[c]);
    assigned += share;
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  const uint64_t ok = counters.ok.load();
  auto histogram = skyex::obs::MetricsRegistry::Global().GetHistogram(
      kLatencyMetric, skyex::obs::LatencyBucketsUs());
  std::printf(
      "loadgen: %llu ok (%llu degraded), %llu retried (429/503), %llu "
      "retry-exhausted, %llu error responses, %llu io errors in %.2fs  "
      "(%.1f req/s)\n",
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(counters.degraded.load()),
      static_cast<unsigned long long>(counters.rejected.load()),
      static_cast<unsigned long long>(counters.retry_exhausted.load()),
      static_cast<unsigned long long>(counters.client_errors.load()),
      static_cast<unsigned long long>(counters.io_errors.load()), seconds,
      seconds > 0 ? static_cast<double>(ok) / seconds : 0.0);
  std::printf("latency_us: p50=%.0f p95=%.0f p99=%.0f (n=%llu, mean=%.0f)\n",
              histogram.Quantile(0.50), histogram.Quantile(0.95),
              histogram.Quantile(0.99),
              static_cast<unsigned long long>(histogram.Count()),
              histogram.Count() > 0
                  ? histogram.Sum() / static_cast<double>(histogram.Count())
                  : 0.0);
  // Achieved link throughput: entities linked per second on our side,
  // and (when the server exposes /metrics) candidate pairs the linker
  // actually scored per second, deltaed across the run.
  const double entities_per_s =
      seconds > 0
          ? static_cast<double>(ok * batch_size) / seconds
          : 0.0;
  const std::optional<ServerWork> work_after =
      FetchServerWork(host, port, timeout_ms);
  if (work_before.has_value() && work_after.has_value() &&
      work_after->pairs >= work_before->pairs && seconds > 0) {
    const double pairs = work_after->pairs - work_before->pairs;
    std::printf(
        "throughput: %.1f entities/s linked, %.1f candidate pairs/s "
        "scored (%.0f pairs server-side)\n",
        entities_per_s, pairs / seconds, pairs);
    // Stage-1 effectiveness across the run: how many candidates the
    // sketch pre-filter cut before extraction, and how often the
    // per-entity text cache spared a normalization.
    const double dropped = work_after->dropped - work_before->dropped;
    const double hits = work_after->lru_hits - work_before->lru_hits;
    const double misses = work_after->lru_misses - work_before->lru_misses;
    const double lookups = hits + misses;
    std::printf(
        "prefilter: %.0f of %.0f candidates dropped (%.1f%%); text-cache "
        "hit rate %.1f%% (%.0f hits, %.0f misses)\n",
        dropped, pairs, pairs > 0 ? 100.0 * dropped / pairs : 0.0,
        lookups > 0 ? 100.0 * hits / lookups : 0.0, hits, misses);
  } else {
    std::printf("throughput: %.1f entities/s linked\n", entities_per_s);
  }
  // End-of-run linkage-quality snapshot (only when the server exposes
  // quality/* gauges): audit-log counters and the latest drift state.
  if (work_after.has_value() && work_after->quality) {
    std::printf(
        "quality: audit sampled=%.0f written=%.0f dropped=%.0f; "
        "psi_feature_max=%.3f ks_score=%.3f psi_lat=%.3f drift_trips=%.0f\n",
        work_after->audit_sampled, work_after->audit_written,
        work_after->audit_dropped, work_after->psi_feature_max,
        work_after->ks_score, work_after->psi_lat, work_after->drift_trips);
  }
  // The tail, by request id: feed these ids to the server's
  // /debug/flight (phase breakdown) or find them as exemplars on
  // /metrics?format=prometheus.
  std::vector<SlowSample> slowest;
  for (const auto& thread_slowest : per_thread_slowest) {
    slowest.insert(slowest.end(), thread_slowest.begin(),
                   thread_slowest.end());
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const SlowSample& a, const SlowSample& b) {
              return a.us > b.us;
            });
  if (slowest.size() > kSlowestK) slowest.resize(kSlowestK);
  if (!slowest.empty()) {
    std::printf("slowest requests (latency_us  request_id):\n");
    for (const SlowSample& sample : slowest) {
      std::printf(
          "  %10.0f  %s\n", sample.us,
          sample.request_id.empty() ? "-" : sample.request_id.c_str());
    }
  }
  const int obs_rc = skyex::tools::ObsFinish(*flags);
  if (flags->Has("fail-on-error-rate")) {
    // Chaos-tolerant acceptance: some injected faults surface as client
    // errors by design; fail only past the allowed rate.
    const double limit = flags->GetDouble("fail-on-error-rate", 0.0);
    const uint64_t errors = counters.client_errors.load() +
                            counters.io_errors.load() +
                            counters.retry_exhausted.load();
    const uint64_t outcomes = ok + errors;
    const double rate =
        outcomes > 0
            ? static_cast<double>(errors) / static_cast<double>(outcomes)
            : 1.0;
    std::printf("error_rate: %.4f (limit %.4f)\n", rate, limit);
    if (rate > limit || ok == 0) return 1;
    return obs_rc;
  }
  // Any non-2xx or transport failure fails the run (the smoke/demo
  // acceptance is zero errors; 429s are backpressure, not errors).
  if (counters.client_errors.load() > 0 || counters.io_errors.load() > 0 ||
      ok == 0) {
    return 1;
  }
  return obs_rc;
}
