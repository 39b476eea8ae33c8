// perfbench_client — closed-loop HTTP client for the serving workloads.
//
//   perfbench_client --port=P --pid=PID --store=store.csv
//       --stream=stream.csv [--cycle] [--offset=N] --connections=C
//       --warmup=W --seconds=S --out=result.json
//
// Request bodies are built the way skyex_loadgen builds them: entities
// are loaded with data::ReadDatasetCsv (which repairs invalid UTF-8 to
// U+FFFD) and written with serve::WriteEntityJson. The stream file's
// records go out in file order, from its N-th on, with their own ids;
// with --cycle they repeat pass after pass under fresh ids (a re-crawl
// of the store). Each request posts one entity to /v1/link.
//
// C connections run a closed loop over one shared request sequence. The
// first W requests are a warm-up; then the server's CPU ticks
// (/proc/PID/stat) and GET /metrics are snapshotted, requests run for S
// seconds, and both are snapshotted again. Latency is taken per request
// from send until the full response is read, and every raw sample is
// written out so percentiles are exact.
//
// Every response is checked: HTTP 200 with a record_index, a links
// array and a merged record, not degraded. The record indices must be
// fresh: exactly store_size + k for the k-th entity with one connection,
// a permutation of the appended range with several. Links are scored
// against data::SamePhysicalEntityRule over every record that existed
// when the entity landed (store records plus earlier appended entities).
// Exit 0 when the run completed, even with failed checks (they are
// reported in the output); exit 1 on I/O trouble.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/build_info.h"
#include "data/csv.h"
#include "data/ground_truth.h"
#include "data/spatial_entity.h"
#include "obs/json.h"
#include "serve/http.h"
#include "serve/json_writer.h"
#include "serve/service.h"
#include "sequence.h"

namespace {

using skyex::data::SpatialEntity;
using skyex::serve::HttpClient;
namespace json = skyex::obs::json;

using perfbench::NowNs;

// Long enough for any response on a loaded host; a timeout fails the run.
constexpr int kTimeoutMs = 60000;

/// user+sys CPU ticks of process `pid` (all threads), -1 when unreadable.
long long ProcessCpuTicks(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return utime + stime;
}

struct Request {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  int status = 0;
  bool sent = false;
  bool ok = false;  // 200, well-formed, nothing degraded
};

struct Outcome {
  bool answered = false;
  int64_t record_index = -1;
  std::vector<int64_t> links;
};

struct Run {
  perfbench::EntitySequence sequence;
  size_t max_requests = 0;

  std::vector<Request> requests;
  std::vector<Outcome> outcomes;  // per request
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  std::atomic<size_t> next{0};

  void Error(const std::string& message) {
    std::lock_guard<std::mutex> lock(errors_mutex);
    if (errors.size() < 20) errors.push_back(message);
  }
};

bool ParseResult(const json::Value& v, Outcome* out) {
  if (!v.is_object()) return false;
  const json::Value* index = v.Find("record_index");
  const json::Value* links = v.Find("links");
  const json::Value* merged = v.Find("merged");
  const json::Value* degraded = v.Find("degraded");
  if (index == nullptr || !index->is_number() || links == nullptr ||
      !links->is_array() || merged == nullptr || !merged->is_object()) {
    return false;
  }
  if (degraded != nullptr && degraded->bool_v) return false;
  out->record_index = static_cast<int64_t>(index->number_v);
  for (const json::Value& link : links->array_v) {
    const json::Value* record = link.Find("record");
    if (record == nullptr || !record->is_number()) return false;
    out->links.push_back(static_cast<int64_t>(record->number_v));
  }
  out->answered = true;
  return true;
}

/// One request: build, send, time, check. Returns false on socket
/// trouble (the caller stops its loop).
bool Send(Run* run, HttpClient* conn, size_t k) {
  skyex::serve::json::Writer writer;
  writer.BeginObject();
  writer.Key("entity");
  skyex::serve::WriteEntityJson(&writer, run->sequence.At(k));
  writer.EndObject();
  const std::string body = writer.Take();

  Request& r = run->requests[k];
  r.send_ns = NowNs();
  const std::optional<skyex::serve::HttpResponse> reply =
      conn->Request("POST", "/v1/link", body);
  r.recv_ns = NowNs();
  r.sent = true;
  if (!reply.has_value()) {
    run->Error("request " + std::to_string(k) + ": connection failed");
    return false;
  }
  r.status = reply->status;
  const std::string& response = reply->body;
  if (r.status != 200) {
    run->Error("request " + std::to_string(k) + ": HTTP " +
               std::to_string(r.status));
    return true;
  }
  std::string parse_error;
  const std::optional<json::Value> doc = json::Parse(response, &parse_error);
  const bool ok = doc.has_value() && ParseResult(*doc, &run->outcomes[k]);
  if (!ok) {
    run->Error("request " + std::to_string(k) +
               ": malformed or degraded response: " + response.substr(0, 200));
  }
  r.ok = ok;
  return true;
}

struct Snapshot {
  long long cpu_ticks = -1;
  std::string metrics = "null";
};

Snapshot TakeSnapshot(uint16_t port, long pid) {
  Snapshot s;
  s.cpu_ticks = ProcessCpuTicks(pid);
  HttpClient conn("127.0.0.1", port, kTimeoutMs);
  const std::optional<skyex::serve::HttpResponse> reply =
      conn.Request("GET", "/metrics");
  if (reply.has_value() && reply->status == 200 &&
      json::Parse(reply->body, nullptr).has_value()) {
    s.metrics = reply->body;
  }
  return s;
}

struct LinkScore {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
};

/// Scores every answered entity's links against the ground-truth rule
/// over the records that existed when it landed, and checks that the
/// record indices are fresh. Appends problems to run->errors.
LinkScore ScoreLinks(Run* run, const std::vector<SpatialEntity>& store,
                     size_t entities, size_t connections) {
  const size_t base = store.size();
  // Landed records in record-index order: the store, then every
  // answered entity at its reported record_index.
  std::vector<SpatialEntity> records = store;
  records.resize(base + entities);
  std::vector<bool> filled(base + entities, false);
  for (size_t s = 0; s < entities; ++s) {
    const Outcome& o = run->outcomes[s];
    if (!o.answered) continue;
    const int64_t want = static_cast<int64_t>(base + s);
    if (connections == 1 && o.record_index != want) {
      run->Error("entity " + std::to_string(s) + ": record_index " +
                 std::to_string(o.record_index) + ", expected " +
                 std::to_string(want));
      continue;
    }
    if (o.record_index < static_cast<int64_t>(base) ||
        o.record_index >= static_cast<int64_t>(base + entities) ||
        filled[o.record_index]) {
      run->Error("entity " + std::to_string(s) + ": record_index " +
                 std::to_string(o.record_index) + " is not fresh");
      continue;
    }
    filled[o.record_index] = true;
    records[o.record_index] = run->sequence.At(s);
  }
  // Rule index: records sharing a non-empty phone, website, or both.
  std::unordered_map<std::string, std::vector<size_t>> by_phone, by_web,
      by_both;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i >= base && !filled[i]) continue;
    const SpatialEntity& e = records[i];
    if (!e.phone.empty()) by_phone[e.phone].push_back(i);
    if (!e.website.empty()) by_web[e.website].push_back(i);
    if (!e.phone.empty() && !e.website.empty()) {
      by_both[e.phone + '\x1f' + e.website].push_back(i);
    }
  }
  auto earlier = [](const std::unordered_map<std::string,
                                             std::vector<size_t>>& index,
                    const std::string& key, size_t limit) -> size_t {
    const auto it = index.find(key);
    if (it == index.end()) return 0;
    return std::lower_bound(it->second.begin(), it->second.end(), limit) -
           it->second.begin();
  };
  LinkScore score;
  for (size_t s = 0; s < entities; ++s) {
    const Outcome& o = run->outcomes[s];
    if (!o.answered || o.record_index < static_cast<int64_t>(base) ||
        o.record_index >= static_cast<int64_t>(records.size()) ||
        !filled[o.record_index]) {
      continue;
    }
    const size_t at = static_cast<size_t>(o.record_index);
    const SpatialEntity& e = records[at];
    size_t tp = 0;
    for (int64_t l : o.links) {
      if (l < 0 || static_cast<size_t>(l) >= at ||
          (static_cast<size_t>(l) >= base && !filled[l])) {
        run->Error("entity " + std::to_string(s) + ": link to record " +
                   std::to_string(l) + " that had not landed");
        continue;
      }
      if (skyex::data::SamePhysicalEntityRule(e, records[l])) ++tp;
    }
    size_t truth = 0;
    if (!e.phone.empty()) truth += earlier(by_phone, e.phone, at);
    if (!e.website.empty()) truth += earlier(by_web, e.website, at);
    if (!e.phone.empty() && !e.website.empty()) {
      truth -= earlier(by_both, e.phone + '\x1f' + e.website, at);
    }
    score.tp += tp;
    score.fp += o.links.size() - tp;
    score.fn += truth > tp ? truth - tp : 0;
  }
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args(argc, argv);
  if (args.Has("version")) {
    std::printf("%s\n", skyex::core::VersionLine("perfbench_client").c_str());
    return 0;
  }
  const uint16_t port = static_cast<uint16_t>(args.GetSize("port", 0));
  const long pid = static_cast<long>(args.GetSize("pid", 0));
  const size_t connections = args.GetSize("connections", 1);
  const size_t warmup = args.GetSize("warmup", 0);
  const double seconds = std::stod(args.Get("seconds", "10"));
  const std::string out_path = args.Get("out");
  if (port == 0 || pid == 0 || connections == 0 || out_path.empty() ||
      !args.Has("store") || !args.Has("stream")) {
    std::fprintf(stderr, "perfbench_client: missing --port/--pid/--store/"
                         "--stream/--out (see the header comment)\n");
    return 2;
  }

  skyex::data::Dataset store;
  skyex::data::CsvError csv_error;
  if (!skyex::data::ReadDatasetCsv(args.Get("store"), &store, &csv_error)) {
    std::fprintf(stderr, "perfbench_client: store line %zu: %s\n",
                 csv_error.line, csv_error.message.c_str());
    return 1;
  }
  Run run;
  skyex::data::Dataset stream;
  if (!skyex::data::ReadDatasetCsv(args.Get("stream"), &stream,
                                   &csv_error)) {
    std::fprintf(stderr, "perfbench_client: stream line %zu: %s\n",
                 csv_error.line, csv_error.message.c_str());
    return 1;
  }
  run.sequence =
      args.Has("cycle")
          ? perfbench::EntitySequence::Cycle(std::move(stream.entities),
                                             store.entities, size_t{1} << 19)
          : perfbench::EntitySequence::Once(std::move(stream.entities));
  run.sequence.Skip(args.GetSize("offset", 0));
  run.max_requests = run.sequence.capacity();
  if (warmup >= run.max_requests) {
    std::fprintf(stderr, "perfbench_client: not enough entities to send\n");
    return 1;
  }
  run.requests.resize(run.max_requests);
  run.outcomes.resize(run.max_requests);

  std::vector<std::unique_ptr<HttpClient>> conns;
  for (size_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<HttpClient>("127.0.0.1", port,
                                                 kTimeoutMs));
  }
  std::atomic<bool> io_failed{false};
  auto phase = [&](size_t limit, int64_t deadline_ns) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          if (deadline_ns > 0 && NowNs() >= deadline_ns) break;
          const size_t k = run.next.fetch_add(1);
          if (k >= limit) break;
          // A reply with "Connection: close" drops the connection.
          if (!conns[c]->ok()) {
            conns[c] = std::make_unique<HttpClient>("127.0.0.1", port,
                                                    kTimeoutMs);
          }
          if (!Send(&run, conns[c].get(), k)) {
            io_failed = true;
            break;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  phase(warmup, 0);
  run.next = warmup;
  const Snapshot before = TakeSnapshot(port, pid);
  const int64_t start_ns = NowNs();
  phase(run.max_requests, start_ns + static_cast<int64_t>(seconds * 1e9));
  int64_t end_ns = start_ns;
  size_t sent = 0;
  for (const Request& r : run.requests) {
    if (!r.sent) continue;
    ++sent;
    end_ns = std::max(end_ns, r.recv_ns);
  }
  const Snapshot after = TakeSnapshot(port, pid);

  const LinkScore score = ScoreLinks(&run, store.entities, sent,
                                     connections);

  std::ostringstream out;
  out.precision(17);
  size_t measured = 0, ok = 0, rejected = 0;
  std::ostringstream latencies;
  latencies.precision(17);
  for (size_t k = warmup; k < run.requests.size(); ++k) {
    const Request& r = run.requests[k];
    if (!r.sent) continue;
    ++measured;
    if (r.ok) ++ok;
    if (r.status == 429 || r.status == 503) ++rejected;
    latencies << (measured > 1 ? "," : "")
              << static_cast<double>(r.recv_ns - r.send_ns) / 1e6;
  }
  size_t warmup_ok = 0;
  for (size_t k = 0; k < warmup; ++k) warmup_ok += run.requests[k].ok;
  out << "{\"connections\": " << connections
      << ", \"warmup_requests\": " << warmup
      << ", \"warmup_ok\": " << warmup_ok << ", \"requests\": " << measured
      << ", \"ok_requests\": " << ok << ", \"rejected\": " << rejected
      << ", \"exhausted\": " << (sent >= run.max_requests ? "true" : "false")
      << ", \"wall_s\": " << static_cast<double>(end_ns - start_ns) / 1e9
      << ", \"clk_tck\": " << ::sysconf(_SC_CLK_TCK)
      << ", \"cpu_ticks\": " << (after.cpu_ticks - before.cpu_ticks)
      << ", \"tp\": " << score.tp << ", \"fp\": " << score.fp
      << ", \"fn\": " << score.fn << ", \"latencies_ms\": ["
      << latencies.str() << "], \"errors\": [";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    out << (i > 0 ? ", \"" : "\"")
        << skyex::serve::json::Escape(run.errors[i]) << '"';
  }
  out << "], \"metrics_before\": " << before.metrics
      << ", \"metrics_after\": " << after.metrics << "}\n";
  std::ofstream file(out_path);
  file << out.str();
  if (!file.flush()) {
    std::fprintf(stderr, "perfbench_client: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return io_failed ? 1 : 0;
}
