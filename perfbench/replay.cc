// perfbench_replay — traced in-process replay of a benchmark workload.
//
//   perfbench_replay --mode=serve --store=store.csv --model=model.txt
//       --stream=stream.csv [--cycle] --warmup=W --requests=N
//       --threads=T
//       --out=result.json --spans-out=spans.json
//   perfbench_replay --mode=batch --store=input.csv --threads=T
//       --linked-out=linked.csv --out=result.json --spans-out=spans.json
//
// Feeds a workload's inputs through the library's public entry points
// and records one span around each call: name, start, end, parent and
// request id, kept in memory and written out at the end. Serving replays
// what skyex_serve does — data::ReadDatasetCsv, core::LoadModelFromFile,
// serve::BootstrapLinkService, quality::Runtime::Enable with the
// MODEL.profile skyex_serve auto-loads — then serve::LinkService::LinkMany
// once per request, the same entities in the same grouping as the HTTP
// client, in sequence order. Batch replays the calls `skyex link` makes.
//
// The replay runs five times: a warm-up pass without spans, then with
// spans, twice without, with spans again, so neither kind of pass meets
// colder caches than the other; the difference of the two kinds' totals
// is the span overhead. Metrics come from the first traced pass. Splits inside a call come only from what it
// returns (serve::LinkBatchStats) and from metrics-registry counter
// deltas. The result JSON holds per-span-name totals and self times
// (duration minus the union of the child spans' intervals, clipped to
// the span), their sum, the traced total (root spans) they add up to
// only when every child lies inside its parent and siblings do not
// overlap, the pass wall time the root span must match, and the share
// of the traced total no call span covers.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/build_info.h"
#include "core/linker.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/csv.h"
#include "data/ground_truth.h"
#include "eval/sampling.h"
#include "features/feature_schema.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "quality/quality.h"
#include "sequence.h"
#include "serve/json_writer.h"
#include "serve/service.h"

namespace {

using perfbench::NowNs;
namespace data = skyex::data;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request_id = -1;
};

/// Span recorder for the single replay thread. Disabled, it records
/// nothing and Scope costs two branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request_id = -1)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(Span{name, NowNs(), 0,
                                     tracer_->open_.empty()
                                         ? -1
                                         : tracer_->open_.back(),
                                     request_id});
      tracer_->open_.push_back(index_);
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      tracer_->spans_[index_].end_ns = NowNs();
      tracer_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Registry counters the per-layer metrics are split from.
constexpr const char* kCounters[] = {
    "core/incremental_candidates", "core/incremental_records",
    "extract/prefilter_dropped",   "extract/lru_hits",
    "extract/lru_misses",          "serve/linked_records",
    "features/rows_extracted",     "skyline/dominance_tests",
    "skyline/layers_peeled",       "par/tasks_executed",
    "par/steals"};

std::vector<uint64_t> ReadCounters() {
  std::vector<uint64_t> values;
  for (const char* name : kCounters) {
    values.push_back(
        skyex::obs::MetricsRegistry::Global().GetCounter(name).Value());
  }
  return values;
}

std::string CounterDeltas(const std::vector<uint64_t>& before,
                          const std::vector<uint64_t>& after) {
  std::string out = "{";
  for (size_t i = 0; i < before.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + std::string(kCounters[i]) +
           "\": " + std::to_string(after[i] - before[i]);
  }
  return out + "}";
}

/// What one pass reports besides its spans.
struct PassResult {
  bool ok = false;
  std::string error;
  int64_t total_ns = 0;
  std::string fields;  // extra JSON members, each ", \"key\": value"
};

bool Fail(PassResult* result, const std::string& error) {
  result->error = error;
  return false;
}

/// skyex_serve's path: load, bootstrap, enable the quality hooks, then
/// one LinkMany per request. Counters and LinkBatchStats cover the
/// requests after the warm-up.
bool ServePass(const perfbench::Args& args,
               const perfbench::EntitySequence& sequence, Tracer* tracer,
               PassResult* result) {
  const size_t warmup = args.GetSize("warmup", 0);
  const size_t requests = args.GetSize("requests", 0);
  const std::string model_path = args.Get("model");
  const std::vector<uint64_t> c0 = ReadCounters();
  std::vector<uint64_t> c_boot, c_warm, c_end;
  skyex::serve::LinkBatchStats stats;
  int64_t link_ns = 0;
  const int64_t start = NowNs();
  {
    Tracer::Scope root(tracer, "replay");
    data::Dataset store;
    {
      Tracer::Scope s(tracer, "data::ReadDatasetCsv");
      if (!data::ReadDatasetCsv(args.Get("store"), &store)) {
        return Fail(result, "cannot read the store");
      }
    }
    std::optional<skyex::core::SkyExTModel> model;
    {
      Tracer::Scope s(tracer, "core::LoadModelFromFile");
      model = skyex::core::LoadModelFromFile(model_path);
    }
    if (!model.has_value()) return Fail(result, "cannot load the model");
    const std::string model_text = skyex::core::SaveModel(*model);
    skyex::core::IncrementalLinkerOptions options;
    options.prefilter_threshold = 0.1;  // skyex_serve's default
    std::unique_ptr<skyex::serve::LinkService> service;
    std::string error;
    {
      Tracer::Scope s(tracer, "serve::BootstrapLinkService");
      service = skyex::serve::BootstrapLinkService(
          std::move(store), std::move(*model), options, &error);
    }
    if (service == nullptr) return Fail(result, "bootstrap: " + error);
    c_boot = ReadCounters();
    {
      Tracer::Scope s(tracer, "quality::Runtime::Enable");
      skyex::quality::QualityOptions quality;
      quality.profile_path = model_path + ".profile";
      if (std::ifstream(quality.profile_path).good() &&
          !skyex::quality::Runtime::Global().Enable(
              quality, model_text, skyex::features::LgmXFeatureCount(),
              skyex::features::LgmXFeatureNames(), &error)) {
        return Fail(result, "quality: " + error);
      }
    }
    for (size_t k = 0; k < requests; ++k) {
      if (k == warmup) c_warm = ReadCounters();
      const std::vector<data::SpatialEntity> entities = {sequence.At(k)};
      skyex::serve::LinkBatchStats request_stats;
      const int64_t t0 = NowNs();
      {
        Tracer::Scope s(tracer, "serve::LinkService::LinkMany",
                        static_cast<int64_t>(k));
        service->LinkMany(entities, &request_stats);
      }
      if (k < warmup) continue;
      link_ns += NowNs() - t0;
      stats.extract_us += request_stats.extract_us;
      stats.prefilter_us += request_stats.prefilter_us;
      stats.rank_us += request_stats.rank_us;
      stats.prefilter_dropped += request_stats.prefilter_dropped;
      stats.lru_hits += request_stats.lru_hits;
      stats.lru_misses += request_stats.lru_misses;
    }
    if (c_warm.empty()) c_warm = ReadCounters();
    c_end = ReadCounters();
    {
      Tracer::Scope s(tracer, "quality::Runtime::Disable");
      skyex::quality::Runtime::Global().Disable();
    }
    Tracer::Scope s(tracer, "serve::~LinkService");
    service.reset();
  }
  result->total_ns = NowNs() - start;
  std::ostringstream f;
  f.precision(17);
  f << ", \"entities\": " << requests - warmup
    << ", \"link_s\": " << static_cast<double>(link_ns) / 1e9
    << ", \"extract_us\": " << stats.extract_us
    << ", \"prefilter_us\": " << stats.prefilter_us
    << ", \"rank_us\": " << stats.rank_us
    << ", \"prefilter_dropped\": " << stats.prefilter_dropped
    << ", \"lru_hits\": " << stats.lru_hits
    << ", \"lru_misses\": " << stats.lru_misses
    << ", \"counters_bootstrap\": " << CounterDeltas(c0, c_boot)
    << ", \"counters_link\": " << CounterDeltas(c_warm, c_end)
    << ", \"counters_pass\": " << CounterDeltas(c0, c_end);
  result->fields = f.str();
  return true;
}

/// The calls `skyex link` makes with its defaults (train on 4% of the
/// blocked pairs with seed 42, label every pair, cluster, write).
bool BatchPass(const perfbench::Args& args, Tracer* tracer,
               PassResult* result) {
  const std::vector<uint64_t> c0 = ReadCounters();
  size_t records = 0, pairs_count = 0, clusters = 0;
  const int64_t start = NowNs();
  {
    Tracer::Scope root(tracer, "replay");
    data::Dataset dataset;
    {
      Tracer::Scope s(tracer, "data::ReadDatasetCsv");
      if (!data::ReadDatasetCsv(args.Get("store"), &dataset)) {
        return Fail(result, "cannot read the input");
      }
    }
    std::vector<skyex::geo::CandidatePair> pairs;
    {
      Tracer::Scope s(tracer, "geo::QuadFlexBlock");
      pairs = skyex::geo::QuadFlexBlock(dataset.Points());
    }
    std::vector<uint8_t> labels;
    {
      Tracer::Scope s(tracer, "data::LabelPairs");
      labels = data::LabelPairs(dataset, pairs);
    }
    std::optional<skyex::features::LgmXExtractor> extractor;
    {
      Tracer::Scope s(tracer, "features::LgmXExtractor::FromCorpus");
      extractor = skyex::features::LgmXExtractor::FromCorpus(dataset);
    }
    skyex::ml::FeatureMatrix features;
    {
      Tracer::Scope s(tracer, "features::LgmXExtractor::Extract");
      features = extractor->Extract(dataset, pairs);
    }
    const auto split = skyex::eval::RandomSplit(pairs.size(), 0.04, 42);
    const std::vector<size_t> all_rows = skyex::core::AllRows(pairs.size());
    skyex::core::SkyExTModel model;
    {
      Tracer::Scope s(tracer, "core::SkyExT::Train");
      model = skyex::core::SkyExT().Train(features, labels, split.train,
                                          &all_rows);
    }
    std::vector<skyex::core::LinkedEntity> linked;
    {
      Tracer::Scope s(tracer, "core::LinkEntities");
      linked = skyex::core::LinkEntities(dataset, features, pairs, model);
    }
    data::Dataset merged;
    for (const auto& entity : linked) merged.entities.push_back(entity.merged);
    {
      Tracer::Scope s(tracer, "data::WriteDatasetCsv");
      if (!data::WriteDatasetCsv(merged, args.Get("linked-out"))) {
        return Fail(result, "cannot write the linked output");
      }
    }
    records = dataset.size();
    pairs_count = pairs.size();
    clusters = linked.size();
  }
  result->total_ns = NowNs() - start;
  result->fields = ", \"records\": " + std::to_string(records) +
                   ", \"pairs\": " + std::to_string(pairs_count) +
                   ", \"clusters\": " + std::to_string(clusters) +
                   ", \"counters_pass\": " +
                   CounterDeltas(c0, ReadCounters());
  return true;
}

bool RunPass(const perfbench::Args& args,
             const perfbench::EntitySequence& sequence, Tracer* tracer,
             PassResult* result) {
  result->ok = args.Get("mode") == "batch"
                   ? BatchPass(args, tracer, result)
                   : ServePass(args, sequence, tracer, result);
  return result->ok;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args(argc, argv);
  if (args.Has("version")) {
    std::printf("%s\n", skyex::core::VersionLine("perfbench_replay").c_str());
    return 0;
  }
  if (!args.Has("store") || !args.Has("out") || !args.Has("spans-out")) {
    std::fprintf(stderr, "perfbench_replay: missing --store/--out/"
                         "--spans-out (see the header comment)\n");
    return 2;
  }
  if (args.Has("threads")) {
    skyex::par::ThreadPool::SetGlobalThreads(args.GetSize("threads", 0));
  }
  perfbench::EntitySequence sequence;
  if (args.Get("mode") == "serve") {
    const size_t needed = args.GetSize("requests", 0);
    const bool cycle = args.Has("cycle");
    data::Dataset stream;
    data::Dataset store;
    if (!data::ReadDatasetCsv(args.Get("stream"), &stream) ||
        (cycle && !data::ReadDatasetCsv(args.Get("store"), &store))) {
      std::fprintf(stderr, "perfbench_replay: cannot read the inputs\n");
      return 1;
    }
    sequence = cycle ? perfbench::EntitySequence::Cycle(
                           std::move(stream.entities), store.entities, needed)
                     : perfbench::EntitySequence::Once(
                           std::move(stream.entities));
    if (sequence.capacity() < needed ||
        args.GetSize("warmup", 0) > args.GetSize("requests", 0)) {
      std::fprintf(stderr, "perfbench_replay: not enough entities\n");
      return 1;
    }
  }

  Tracer traced(true);
  Tracer traced_again(true);
  Tracer untraced(false);
  PassResult passes[5];
  Tracer* const tracers[5] = {&untraced, &traced, &untraced, &untraced,
                              &traced_again};
  for (int p = 0; p < 5; ++p) {
    if (!RunPass(args, sequence, tracers[p], &passes[p])) {
      std::fprintf(stderr, "perfbench_replay: %s\n", passes[p].error.c_str());
      return 1;
    }
  }
  const PassResult& first = passes[1];

  // Self time: duration minus the union of the children's intervals,
  // clipped to the span. Children are recorded in start order.
  const std::vector<Span>& spans = traced.spans();
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  struct Aggregate {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Aggregate> by_name;
  int64_t self_sum_ns = 0;
  int64_t root_ns = 0;
  int64_t root_self_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (size_t c : children[i]) {
      const int64_t from = std::max(cursor, spans[c].start_ns);
      const int64_t to = std::min(spans[i].end_ns, spans[c].end_ns);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
    const int64_t self = duration - covered;
    self_sum_ns += self;
    if (spans[i].parent < 0) {
      root_ns += duration;
      root_self_ns += self;
    }
    Aggregate& a = by_name[spans[i].name];
    ++a.count;
    a.total_ns += duration;
    a.self_ns += self;
  }

  std::ofstream spans_file(args.Get("spans-out"));
  spans_file << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    spans_file << (i > 0 ? ",\n" : "\n") << "{\"name\": \""
               << skyex::serve::json::Escape(spans[i].name)
               << "\", \"start_ns\": " << spans[i].start_ns - spans[0].start_ns
               << ", \"end_ns\": " << spans[i].end_ns - spans[0].start_ns
               << ", \"parent\": " << spans[i].parent
               << ", \"request_id\": " << spans[i].request_id << "}";
  }
  spans_file << "\n]\n";

  std::ostringstream out;
  out.precision(17);
  auto seconds = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  out << "{\"traced_total_s\": " << seconds(root_ns)
      << ", \"self_sum_s\": " << seconds(self_sum_ns)
      << ", \"unattributed_s\": " << seconds(root_self_ns)
      << ", \"pass_wall_s\": " << seconds(first.total_ns)
      << ", \"traced_wall_s\": "
      << seconds(passes[1].total_ns + passes[4].total_ns)
      << ", \"untraced_wall_s\": "
      << seconds(passes[2].total_ns + passes[3].total_ns)
      << ", \"spans\": {";
  const char* separator = "";
  for (const auto& [name, a] : by_name) {
    out << separator << '"' << skyex::serve::json::Escape(name)
        << "\": {\"count\": " << a.count
        << ", \"total_s\": " << seconds(a.total_ns)
        << ", \"self_s\": " << seconds(a.self_ns) << "}";
    separator = ", ";
  }
  out << "}" << first.fields << "}\n";
  std::ofstream file(args.Get("out"));
  file << out.str();
  if (!file.flush() || !spans_file.flush()) {
    std::fprintf(stderr, "perfbench_replay: cannot write the results\n");
    return 1;
  }
  return 0;
}
