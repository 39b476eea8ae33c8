// skyex_serve — online spatial-linkage service.
//
//   skyex_serve --model=model.txt --dataset=entities.csv --port=8080
//               --workers=8 --queue-depth=128 --batch-window-us=1000
//
// Loads a trained SkyEx-T model (core/model_io v2) and a dataset,
// calibrates an incremental linker on the pairs the model accepts,
// partitions it over --shards linkers behind the scatter-gather router
// (one by default), and serves linkage queries over HTTP/1.1 (see
// src/serve/server.h for the endpoints). SIGTERM/SIGINT drain
// gracefully: requests already in flight receive their responses before
// the process exits. SIGUSR2 dumps the flight recorder (recent request
// timelines, top-K slowest, marker events) to stderr and keeps serving.
//
// Observability: all the usual flags (--trace-out, --metrics-out,
// --log-level, --obs-summary); artifacts are written after the drain.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>

#include "core/model_io.h"
#include "data/csv.h"
#include "fault/fault.h"
#include "features/feature_schema.h"
#include "flags.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "prof/prof.h"
#include "quality/quality.h"
#include "serve/server.h"
#include "shard/router.h"
#include "text/similarity_registry.h"

namespace {

using skyex::tools::FlagType;
using skyex::tools::Flags;

int Usage() {
  std::fprintf(
      stderr,
      "usage: skyex_serve --model=FILE.txt --dataset=FILE.csv [flags]\n\n"
      "  --port=N               listen port (default 8080; 0 = ephemeral)\n"
      "  --port-file=FILE       write the bound port (for scripts)\n"
      "  --workers=N            I/O worker threads (default 8)\n"
      "  --queue-depth=N        per-shard link queue depth (default 128;\n"
      "                         overflow answers 429 + Retry-After)\n"
      "  --batch-window-us=N    micro-batch coalescing window (default\n"
      "                         1000)\n"
      "  --max-batch=N          link jobs per shard wakeup (default 64)\n"
      "  --max-body-bytes=N     request body cap (default 1048576)\n"
      "  --radius-m=R           candidate radius meters (default 200)\n"
      "  --calibration-percentile=Q  acceptance boundary quantile\n"
      "                         (default 0.1; higher = more precise)\n"
      "  --prefilter-threshold=T  stage-1 sketch pre-filter: drop\n"
      "                         candidates whose estimated token overlap\n"
      "                         is below T before feature extraction\n"
      "                         (default 0.1; 0 = off, bit-identical to\n"
      "                         scoring every candidate)\n"
      "  --text-cache=N         per-linker LRU of normalized text +\n"
      "                         sketches, in entries (default 4096;\n"
      "                         0 = recompute per request)\n"
      "  --reference-kernels    score with the frozen scalar reference\n"
      "                         similarity kernels (bench baseline;\n"
      "                         see docs/performance.md)\n"
      "  --shards=N             geo-partitioned serving: N linkers\n"
      "                         behind the scatter-gather router (default\n"
      "                         1; 0 clamps to 1; docs/serving.md)\n\n"
      "resilience (docs/robustness.md):\n"
      "  --deadline-ms=N        per-request link deadline (default 0 =\n"
      "                         off; expiry answers degraded or 503)\n"
      "  --watchdog-ms=N        wedged-shard threshold (default 0 = off)\n"
      "  --no-degraded          disable the degraded fallback path\n"
      "  --breaker-window=N     breaker outcome window (default 64)\n"
      "  --breaker-threshold=F  failure rate that opens it (default 0.5)\n"
      "  --breaker-open-ms=N    open period before a probe (default 1000)\n"
      "  --max-retry-after-s=N  Retry-After jitter cap (default 4)\n"
      "  --fault-spec=SPEC      arm fault-injection points (also read\n"
      "                         from $SKYEX_FAULT_SPEC; see src/fault/)\n\n"
      "linkage quality (docs/observability.md):\n"
      "  --audit-log=FILE       append sampled link decisions to FILE\n"
      "                         (self-describing binary; skyex_audit\n"
      "                         dumps/replays it)\n"
      "  --audit-sample=N       audit every Nth link attempt (default 1)\n"
      "  --audit-queue=N        async writer queue capacity (default\n"
      "                         1024; overflow drops + counts)\n"
      "  --quality-profile=FILE reference profile for drift detection\n"
      "                         (default: MODEL.profile when it exists;\n"
      "                         written by `skyex train`)\n"
      "  --no-quality           skip the MODEL.profile auto-default\n"
      "  --drift-window=N       observed rows per drift evaluation\n"
      "                         (default 512)\n"
      "  --drift-row-sample=N   observe every Nth scored row (default 16;\n"
      "                         decorrelates windows from per-request\n"
      "                         candidate bursts)\n"
      "  --entity-window=N      entities per entity-drift evaluation\n"
      "                         (default 256)\n"
      "  --psi-threshold=F      PSI trip level (default 0.25)\n"
      "  --ks-threshold=F       score-KS trip level (default 0.25)\n\n"
      "runtime: --threads=N   shared thread pool size (default: all\n"
      "                       cores; the linker scores batches on it)\n"
      "profiling: --profile-hz=N  sampling profiler rate (default 97;\n"
      "                       0 = off; serves /debug/pprof/profile and\n"
      "                       /debug/pprof/heap)\n"
      "observability: --trace-out --metrics-out --log-level "
      "--obs-summary\n"
      "signals: SIGTERM/SIGINT drain and exit; SIGUSR2 dumps the\n"
      "         flight recorder to stderr and keeps serving\n");
  return 2;
}

// SIGTERM/SIGINT (byte 1) and SIGUSR2 (byte 2) wake the main thread
// through a self-pipe; everything else (drain, joins, flight dumps)
// happens in normal code, not in the handler.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void OnFlightDumpSignal(int) {
  const char byte = 2;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (skyex::tools::HandleVersion(argc, argv, "skyex_serve")) return 0;
  const auto flags = skyex::tools::ParseFlags(
      argc, argv, 1,
      {{"model", FlagType::kString},
       {"dataset", FlagType::kString},
       {"port", FlagType::kSize},
       {"port-file", FlagType::kString},
       {"workers", FlagType::kSize},
       {"queue-depth", FlagType::kSize},
       {"batch-window-us", FlagType::kSize},
       {"max-batch", FlagType::kSize},
       {"max-body-bytes", FlagType::kSize},
       {"radius-m", FlagType::kDouble},
       {"calibration-percentile", FlagType::kDouble},
       {"prefilter-threshold", FlagType::kDouble},
       {"text-cache", FlagType::kSize},
       {"reference-kernels", FlagType::kBool},
       {"shards", FlagType::kSize},
       {"deadline-ms", FlagType::kSize},
       {"watchdog-ms", FlagType::kSize},
       {"no-degraded", FlagType::kBool},
       {"breaker-window", FlagType::kSize},
       {"breaker-threshold", FlagType::kDouble},
       {"breaker-open-ms", FlagType::kSize},
       {"max-retry-after-s", FlagType::kSize},
       {"fault-spec", FlagType::kString},
       {"audit-log", FlagType::kString},
       {"audit-sample", FlagType::kSize},
       {"audit-queue", FlagType::kSize},
       {"quality-profile", FlagType::kString},
       {"no-quality", FlagType::kBool},
       {"drift-window", FlagType::kSize},
       {"drift-row-sample", FlagType::kSize},
       {"entity-window", FlagType::kSize},
       {"psi-threshold", FlagType::kDouble},
       {"ks-threshold", FlagType::kDouble}});
  if (!flags.has_value()) return Usage();
  // The double flags are range-checked before the model or the dataset
  // is read. NaN passes std::clamp and fails every comparison, so each
  // test is written to fail on it.
  {
    struct DoubleCheck {
      const char* name;
      bool (*ok)(double);
      const char* expected;
    };
    const auto finite = [](double v) { return std::isfinite(v); };
    const DoubleCheck checks[] = {
        {"radius-m", [](double v) { return std::isfinite(v) && v > 0.0; },
         "a finite number > 0"},
        {"calibration-percentile",
         [](double v) { return v >= 0.0 && v <= 1.0; }, "a number in [0, 1]"},
        {"prefilter-threshold", finite, "a finite number"},
        {"breaker-threshold", finite, "a finite number"},
        {"psi-threshold", finite, "a finite number"},
        {"ks-threshold", finite, "a finite number"},
    };
    for (const DoubleCheck& check : checks) {
      if (flags->Has(check.name) &&
          !check.ok(flags->GetDouble(check.name, 0.0))) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for --%s (expected %s)\n",
                     flags->Get(check.name).c_str(), check.name,
                     check.expected);
        return 2;
      }
    }
  }
  if (!skyex::tools::ObsSetup(*flags)) return 2;
  {
    std::string fault_error;
    if (!skyex::fault::ArmFromEnv(&fault_error)) {
      std::fprintf(stderr, "error: SKYEX_FAULT_SPEC: %s\n",
                   fault_error.c_str());
      return 2;
    }
    const std::string fault_spec = flags->Get("fault-spec");
    if (!fault_spec.empty() &&
        !skyex::fault::Registry::Global().ArmSpec(fault_spec,
                                                  &fault_error)) {
      std::fprintf(stderr, "error: --fault-spec: %s\n",
                   fault_error.c_str());
      return 2;
    }
  }
  const std::string model_path = flags->Get("model");
  const std::string dataset_path = flags->Get("dataset");
  if (model_path.empty() || dataset_path.empty()) {
    std::fprintf(stderr, "error: --model and --dataset are required\n");
    return Usage();
  }

  skyex::data::Dataset dataset;
  skyex::data::CsvError csv_error;
  if (!skyex::data::ReadDatasetCsv(dataset_path, &dataset, &csv_error)) {
    std::fprintf(stderr, "error: %s line %zu: %s\n", dataset_path.c_str(),
                 csv_error.line, csv_error.message.c_str());
    return 1;
  }
  skyex::core::ModelIoError model_error;
  auto model = skyex::core::LoadModelFromFile(model_path, &model_error);
  if (!model.has_value()) {
    std::fprintf(stderr, "error: cannot load model %s: %s\n",
                 model_path.c_str(), model_error.message.c_str());
    return 1;
  }

  skyex::core::IncrementalLinkerOptions linker_options;
  linker_options.radius_m = flags->GetDouble("radius-m", 200.0);
  linker_options.calibration_percentile =
      flags->GetDouble("calibration-percentile", 0.1);
  // Serving default: a permissive stage-1 cut (the library default is 0
  // so offline training/calibration never filters).
  linker_options.prefilter_threshold =
      flags->GetDouble("prefilter-threshold", 0.1);
  linker_options.text_cache_capacity = flags->GetSize("text-cache", 4096);
  if (flags->Has("reference-kernels")) {
    skyex::text::SetKernelImpl(skyex::text::KernelImpl::kReference);
    std::fprintf(stderr,
                 "skyex_serve: scoring with reference similarity kernels\n");
  }
  skyex::serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags->GetSize("port", 8080));
  options.workers = flags->GetSize("workers", 8);
  options.max_body_bytes = flags->GetSize("max-body-bytes", 1 << 20);
  options.deadline_ms =
      static_cast<int>(flags->GetSize("deadline-ms", 0));
  // Always-on sampling by default in the serving binary; unit tests
  // and embedders leave ServerOptions.profile_hz at 0.
  options.profile_hz = static_cast<int>(flags->GetSize(
      "profile-hz", skyex::prof::CpuProfiler::kDefaultHz));
  options.degraded_fallback = !flags->Has("no-degraded");
  skyex::shard::RouterOptions router_options;
  router_options.node.queue_capacity = flags->GetSize("queue-depth", 128);
  router_options.node.batch_window_us =
      static_cast<int>(flags->GetSize("batch-window-us", 1000));
  router_options.node.max_batch = flags->GetSize("max-batch", 64);
  router_options.node.breaker.window = flags->GetSize("breaker-window", 64);
  router_options.node.breaker.failure_threshold =
      flags->GetDouble("breaker-threshold", 0.5);
  router_options.node.breaker.open_ms =
      static_cast<int>(flags->GetSize("breaker-open-ms", 1000));
  router_options.node.breaker.max_retry_after_s =
      static_cast<int>(flags->GetSize("max-retry-after-s", 4));
  router_options.watchdog_ms =
      static_cast<int>(flags->GetSize("watchdog-ms", 0));

  // Model text for the quality runtime: the same model_io text the
  // trainer hashed when it wrote the reference profile.
  const std::string model_text = skyex::core::SaveModel(*model);

  std::string error;
  std::fprintf(stderr, "skyex_serve: calibrating on %zu records...\n",
               dataset.size());
  std::unique_ptr<skyex::shard::Router> router = skyex::shard::BootstrapRouter(
      std::move(dataset), std::move(*model), linker_options,
      flags->GetSize("shards", 1), router_options, &error);
  if (router == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  router->Start();
  skyex::serve::Server server(router.get(), options);
  // Linkage-quality observability: explicit flags always win; otherwise
  // a MODEL.profile written by `skyex train` is picked up automatically
  // (suppressed by --no-quality).
  {
    skyex::quality::QualityOptions quality_options;
    quality_options.audit.path = flags->Get("audit-log");
    quality_options.audit.sample_every = flags->GetSize("audit-sample", 1);
    quality_options.audit.queue_capacity =
        flags->GetSize("audit-queue", 1024);
    quality_options.profile_path = flags->Get("quality-profile");
    quality_options.drift.window = flags->GetSize("drift-window", 512);
    quality_options.drift.row_sample_every =
        flags->GetSize("drift-row-sample", 16);
    quality_options.drift.entity_window =
        flags->GetSize("entity-window", 256);
    quality_options.drift.psi_threshold =
        flags->GetDouble("psi-threshold", 0.25);
    quality_options.drift.ks_threshold =
        flags->GetDouble("ks-threshold", 0.25);
    if (quality_options.profile_path.empty() && !flags->Has("no-quality")) {
      const std::string default_profile = model_path + ".profile";
      if (std::ifstream(default_profile).good()) {
        quality_options.profile_path = default_profile;
      }
    }
    if (!quality_options.audit.path.empty() ||
        !quality_options.profile_path.empty()) {
      std::string quality_error;
      if (!skyex::quality::Runtime::Global().Enable(
              quality_options, model_text, skyex::features::LgmXFeatureCount(),
              skyex::features::LgmXFeatureNames(), &quality_error)) {
        std::fprintf(stderr, "error: quality: %s\n", quality_error.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "skyex_serve: quality observability on (audit=%s, "
                   "profile=%s, sample=1/%zu)\n",
                   quality_options.audit.path.empty()
                       ? "off"
                       : quality_options.audit.path.c_str(),
                   quality_options.profile_path.empty()
                       ? "off"
                       : quality_options.profile_path.c_str(),
                   static_cast<size_t>(quality_options.audit.sample_every));
    }
  }

  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "skyex_serve: listening on port %u (records=%zu, "
               "workers=%zu, queue-depth=%zu, shards=%zu)\n",
               server.port(), router->record_count(), options.workers,
               router_options.node.queue_capacity, router->num_shards());
  const std::string port_file = flags->Get("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: cannot create signal pipe\n");
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGUSR2, OnFlightDumpSignal);
  for (;;) {
    char byte = 0;
    if (::read(g_signal_pipe[0], &byte, 1) < 0) {
      continue;  // EINTR from the signal itself; retry for the byte
    }
    if (byte == 2) {
      skyex::obs::FlightRecorder::Global().DumpToStderr("sigusr2");
      continue;  // keep serving
    }
    break;  // SIGTERM/SIGINT: drain
  }

  std::fprintf(stderr, "skyex_serve: draining...\n");
  server.Stop();
  router->Stop();
  const auto stats = server.stats();
  std::fprintf(stderr,
               "skyex_serve: shutdown complete — %llu requests on %llu "
               "connections (%llu ok, %llu client errors, %llu rejected "
               "429, %llu shed 503, %llu server errors; %llu deadline "
               "expiries, %llu degraded, %llu breaker-shed, %llu breaker "
               "opens, %llu watchdog trips)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.responses_client_error),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.responses_server_error),
               static_cast<unsigned long long>(stats.deadline_expired),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.breaker_rejected),
               static_cast<unsigned long long>(stats.breaker_opens),
               static_cast<unsigned long long>(stats.watchdog_trips));
  {
    auto& quality_runtime = skyex::quality::Runtime::Global();
    if (quality_runtime.enabled()) {
      quality_runtime.Flush();  // queued records count as written below
      const auto snapshot = quality_runtime.snapshot();
      quality_runtime.Disable();
      std::fprintf(
          stderr,
          "skyex_serve: quality — %llu audit attempts, %llu sampled, "
          "%llu written, %llu dropped; drift evaluations=%llu trips=%llu\n",
          static_cast<unsigned long long>(snapshot.attempts),
          static_cast<unsigned long long>(snapshot.sampled),
          static_cast<unsigned long long>(snapshot.written),
          static_cast<unsigned long long>(snapshot.dropped),
          static_cast<unsigned long long>(
              snapshot.drift_stats.row_windows +
              snapshot.drift_stats.entity_windows),
          static_cast<unsigned long long>(snapshot.drift_stats.trips));
    }
  }
  return skyex::tools::ObsFinish(*flags);
}
