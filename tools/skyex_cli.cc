// skyex — command-line interface to the spatial entity linkage pipeline.
//
//   skyex generate --dataset=northdk --entities=8000 --out=entities.csv
//   skyex train    --in=entities.csv --train-fraction=0.04 --model-out=m.txt
//   skyex apply    --in=entities.csv --model=m.txt --out=matches.csv
//   skyex link     --in=entities.csv --train-fraction=0.04 --out=linked.csv
//   skyex eval     --in=entities.csv --model=m.txt
//
// Every command also accepts the observability flags
//   --trace-out=FILE     write a Chrome trace (about://tracing, Perfetto)
//   --metrics-out=FILE   write the metrics registry as JSON
//   --log-level=LEVEL    debug|info|warn|error (default info)
//   --obs-summary        print span/metric summary tables to stderr
//   --cpu-profile=FILE   collapsed-stack CPU profile of the run
// and the shared runtime flag
//   --threads=N          size of the shared thread pool (0 = all cores)
//
// Ground-truth labels come from the phone/website rule of the paper; for
// hand-labeled data, put the shared identifier into the phone column.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/linker.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "core/two_pass.h"
#include "data/csv.h"
#include "data/ground_truth.h"
#include "data/northdk_generator.h"
#include "data/restaurants_generator.h"
#include "eval/metrics.h"
#include "eval/sampling.h"
#include "features/feature_schema.h"
#include "features/lgm_x.h"
#include "features/sketch.h"
#include "geo/quadflex.h"
#include "quality/audit_log.h"
#include "quality/profile.h"
#include "skyline/preference.h"
#include "text/normalize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "flags.h"

namespace {

using skyex::core::SkyExT;
using skyex::core::SkyExTModel;

// Flag parsing and the observability plumbing are shared with the
// server and the load generator — see tools/flags.h.
using skyex::tools::FlagSpec;
using skyex::tools::Flags;
using skyex::tools::FlagType;
using skyex::tools::ObsFinish;
using skyex::tools::ObsSetup;
using skyex::tools::ParseFlags;

int Usage() {
  std::fprintf(
      stderr,
      "usage: skyex <command> [--flag=value ...]\n\n"
      "commands:\n"
      "  generate  --dataset=northdk|restaurants --entities=N --seed=N\n"
      "            --out=FILE.csv\n"
      "  train     --in=FILE.csv --train-fraction=F --seed=N\n"
      "            --model-out=FILE.txt [--profile-out=FILE |\n"
      "            --no-profile]   (a drift reference profile is written\n"
      "            to MODEL.profile by default; docs/observability.md)\n"
      "  apply     --in=FILE.csv --model=FILE.txt --out=matches.csv\n"
      "  link      --in=FILE.csv [--model=FILE.txt | --train-fraction=F]\n"
      "            --out=linked.csv\n"
      "  eval      --in=FILE.csv --model=FILE.txt\n"
      "  prefilter-eval  --in=FILE.csv [--model=FILE.txt |\n"
      "            --train-fraction=F] [--thresholds=T1,T2,...]\n"
      "            [--out=FILE.json]   recall/drop-rate curve of the\n"
      "            stage-1 sketch pre-filter against the model's\n"
      "            accepted pairs (docs/performance.md)\n\n"
      "observability (all commands):\n"
      "  --trace-out=FILE     Chrome trace-event JSON (Perfetto,\n"
      "                       about://tracing)\n"
      "  --metrics-out=FILE   metrics registry dump as JSON\n"
      "  --log-level=LEVEL    debug|info|warn|error (default info)\n"
      "  --obs-summary        span/metric summary tables on stderr\n"
      "  --cpu-profile=FILE   sample the run, write collapsed stacks\n"
      "                       (flamegraph.pl format; --profile-hz=N\n"
      "                       overrides the 97 Hz default)\n\n"
      "runtime (all commands):\n"
      "  --threads=N          shared thread pool size (default: all\n"
      "                       cores; 1 = fully serial execution)\n");
  return 2;
}

// A dataset, its blocked pairs, their ground-truth labels and their
// features.
struct LoadedPipeline {
  skyex::data::Dataset dataset;
  std::vector<skyex::geo::CandidatePair> pairs;
  std::vector<uint8_t> labels;
  skyex::ml::FeatureMatrix features;
};

// Loads the dataset, blocks it (geo::BlockPoints: QuadFlex when any
// record has coordinates, Cartesian otherwise) and labels the pairs with
// the ground-truth rule. The features stay empty.
std::optional<LoadedPipeline> LoadPairs(const std::string& path) {
  SKYEX_SPAN("cli/load_pipeline");
  LoadedPipeline p;
  {
    SKYEX_SPAN("data/read_csv");
    if (!skyex::data::ReadDatasetCsv(path, &p.dataset)) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return std::nullopt;
    }
  }
  const char* blocker = nullptr;
  p.pairs = skyex::geo::BlockPoints(p.dataset.Points(), &blocker);
  {
    SKYEX_SPAN("data/label_pairs");
    p.labels = skyex::data::LabelPairs(p.dataset, p.pairs);
  }
  SKYEX_LOG_INFO("cli/load_pipeline", "loaded and blocked dataset",
                 {"path", path}, {"records", p.dataset.size()},
                 {"pairs", p.pairs.size()},
                 {"blocker", blocker});
  return p;
}

// LoadPairs, then the pairs' features: every LGM-X column, or only
// `columns` (in that order) when given.
std::optional<LoadedPipeline> LoadPipeline(
    const std::string& path, const std::vector<size_t>* columns = nullptr) {
  auto p = LoadPairs(path);
  if (!p.has_value()) return std::nullopt;
  const auto extractor =
      skyex::features::LgmXExtractor::FromCorpus(p->dataset);
  p->features = columns == nullptr
                    ? extractor.Extract(p->dataset, p->pairs)
                    : extractor.Extract(p->dataset, p->pairs,
                                        extractor.PlanColumns(*columns));
  return p;
}

// Loads a saved model and projects it onto the columns its preference
// reads, so the pipeline extracts only those. A model that reads outside
// the LGM-X schema is refused here, with skyex_serve's message.
std::optional<skyex::core::ProjectedModel> LoadProjectedModel(
    const std::string& path) {
  const auto model = skyex::core::LoadModelFromFile(path);
  if (!model.has_value()) {
    std::fprintf(stderr, "error: cannot load model\n");
    return std::nullopt;
  }
  std::string error;
  auto projected = skyex::core::ProjectModel(
      *model, skyex::features::LgmXFeatureCount(), &error);
  if (!projected.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  return projected;
}

// The labelled pairs SkyEx-T trains on: --train-fraction of them (main
// has checked it lies in (0, 1]), drawn with --seed.
std::vector<size_t> TrainingRows(const LoadedPipeline& p, const Flags& flags) {
  return skyex::eval::RandomSplit(p.pairs.size(),
                                  flags.GetDouble("train-fraction", 0.04),
                                  flags.GetSize("seed", 42))
      .train;
}

void LogTrainedModel(size_t train_pairs, const SkyExTModel& model) {
  SKYEX_LOG_INFO("cli/train_model", "trained SkyEx-T model",
                 {"train_pairs", train_pairs},
                 {"cutoff_ratio", model.cutoff_ratio},
                 {"train_f1", model.train_f1});
  SKYEX_LOG_DEBUG("cli/train_model", "preference",
                  {"p", model.Describe(skyex::features::LgmXFeatureNames())});
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out", "entities.csv");
  skyex::data::Dataset dataset;
  if (flags.Get("dataset", "northdk") == "restaurants") {
    skyex::data::RestaurantsOptions options;
    options.seed = flags.GetSize("seed", options.seed);
    dataset = skyex::data::GenerateRestaurants(options);
  } else {
    skyex::data::NorthDkOptions options;
    options.num_entities = flags.GetSize("entities", options.num_entities);
    options.seed = flags.GetSize("seed", options.seed);
    dataset = skyex::data::GenerateNorthDk(options);
  }
  if (!skyex::data::WriteDatasetCsv(dataset, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", dataset.size(), out.c_str());
  return 0;
}

// `train` keeps every column of every pair: the reference profile
// histograms them all.
int CmdTrain(const Flags& flags) {
  const auto p = LoadPipeline(flags.Get("in", "entities.csv"));
  if (!p.has_value()) return 1;
  const std::vector<size_t> train_rows = TrainingRows(*p, flags);
  const std::vector<size_t> all_rows = skyex::core::AllRows(p->pairs.size());
  const SkyExTModel model =
      SkyExT().Train(p->features, p->labels, train_rows, &all_rows);
  LogTrainedModel(train_rows.size(), model);
  const std::string out = flags.Get("model-out", "model.txt");
  if (!skyex::core::SaveModelToFile(model, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("model written to %s\n", out.c_str());
  // Reference profile for serve-time drift detection (skipped with
  // --no-profile): the feature/score/entity distributions the model was
  // trained against, bound to the model by its model_io text hash.
  if (!flags.Has("no-profile")) {
    const std::string profile_out = flags.Get("profile-out", out + ".profile");
    const std::optional<skyex::skyline::CompiledPreference> compiled =
        model.preference != nullptr ? skyex::skyline::Compile(*model.preference)
                                    : std::nullopt;
    if (compiled.has_value()) {
      std::vector<double> scores(p->features.rows, 0.0);
      std::vector<double> key(compiled->KeySize());
      for (size_t r = 0; r < p->features.rows; ++r) {
        compiled->Key(p->features.Row(r), key.data());
        scores[r] = key.empty() ? 0.0 : key[0];
      }
      const skyex::quality::ReferenceProfile profile =
          skyex::quality::BuildReferenceProfile(
              p->dataset, p->features, scores,
              skyex::quality::HashModelText(skyex::core::SaveModel(model)));
      if (!skyex::quality::SaveProfileToFile(profile, profile_out)) {
        std::fprintf(stderr, "error: cannot write %s\n", profile_out.c_str());
        return 1;
      }
      std::printf("reference profile written to %s\n", profile_out.c_str());
    }
  }
  return 0;
}

bool WriteMatchesCsv(const LoadedPipeline& p,
                     const std::vector<uint8_t>& predicted,
                     const std::string& out) {
  std::ofstream file(out);
  if (!file) return false;
  file << "id_a,name_a,id_b,name_b\n";
  for (size_t k = 0; k < p.pairs.size(); ++k) {
    if (!predicted[k]) continue;
    const auto& [i, j] = p.pairs[k];
    file << p.dataset[i].id << ','
         << skyex::data::EscapeCsvField(p.dataset[i].name) << ','
         << p.dataset[j].id << ','
         << skyex::data::EscapeCsvField(p.dataset[j].name) << '\n';
  }
  return static_cast<bool>(file);
}

void ReportAgainstRule(const LoadedPipeline& p,
                       const std::vector<uint8_t>& predicted) {
  const auto cm = skyex::eval::Confusion(predicted, p.labels);
  std::printf("against the phone/website rule: %s\n",
              cm.ToString().c_str());
}

int CmdApply(const Flags& flags) {
  const auto model = LoadProjectedModel(flags.Get("model", "model.txt"));
  if (!model.has_value()) return 1;
  const auto p = LoadPipeline(flags.Get("in", "entities.csv"), &model->columns);
  if (!p.has_value()) return 1;
  const auto predicted = SkyExT::Label(
      p->features, skyex::core::AllRows(p->pairs.size()), model->model);
  const std::string out = flags.Get("out", "matches.csv");
  if (!WriteMatchesCsv(*p, predicted, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  size_t matches = 0;
  for (uint8_t v : predicted) matches += v;
  std::printf("%zu matched pairs written to %s\n", matches, out.c_str());
  ReportAgainstRule(*p, predicted);
  return 0;
}

// The pipeline and model of `link` and `prefilter-eval`: a model
// projected onto the columns its preference reads, and a pipeline holding
// only those. With --model it is the saved model; otherwise a model
// trained on a fraction of the pairs, in two passes (core/two_pass.h).
struct ModelAndPipeline {
  LoadedPipeline pipeline;
  SkyExTModel model;
};

std::optional<ModelAndPipeline> LoadOrTrain(const Flags& flags) {
  const std::string in = flags.Get("in", "entities.csv");
  const std::string model_path = flags.Get("model");
  if (model_path.empty()) {
    auto p = LoadPairs(in);
    if (!p.has_value()) return std::nullopt;
    const std::vector<size_t> train_rows = TrainingRows(*p, flags);
    skyex::core::TwoPassModel trained = skyex::core::TrainTwoPass(
        SkyExT(), skyex::features::LgmXExtractor::FromCorpus(p->dataset),
        p->dataset, p->pairs, p->labels, train_rows);
    LogTrainedModel(train_rows.size(), trained.model);
    p->features = std::move(trained.features);
    return ModelAndPipeline{std::move(*p),
                            std::move(trained.projected.model)};
  }
  auto projected = LoadProjectedModel(model_path);
  if (!projected.has_value()) return std::nullopt;
  auto p = LoadPipeline(in, &projected->columns);
  if (!p.has_value()) return std::nullopt;
  return ModelAndPipeline{std::move(*p), std::move(projected->model)};
}

int CmdLink(const Flags& flags) {
  const auto loaded = LoadOrTrain(flags);
  if (!loaded.has_value()) return 1;
  const LoadedPipeline& p = loaded->pipeline;
  const auto linked = skyex::core::LinkEntities(p.dataset, p.features,
                                                p.pairs, loaded->model);
  const std::string out = flags.Get("out", "linked.csv");
  skyex::data::Dataset merged;
  merged.entities.reserve(linked.size());
  for (const auto& entity : linked) {
    merged.entities.push_back(entity.merged);
  }
  if (!skyex::data::WriteDatasetCsv(merged, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("linked %zu records into %zu entities; merged view in %s\n",
              p.dataset.size(), linked.size(), out.c_str());
  return 0;
}

// Sweeps the stage-1 sketch pre-filter over `thresholds` and reports,
// per threshold, the candidate drop rate and the recall against the
// pairs the model accepts: of the accepted pairs, how many survive the
// filter. Pair estimates come from the same BuildTokenSketch /
// EstimatePair calls LgmXExtractor::PrefilterPairs makes, so the curve
// is exactly what --prefilter-threshold would do in production.
int CmdPrefilterEval(const Flags& flags) {
  const auto loaded = LoadOrTrain(flags);
  if (!loaded.has_value()) return 1;
  const LoadedPipeline& p = loaded->pipeline;
  const auto predicted = SkyExT::Label(
      p.features, skyex::core::AllRows(p.pairs.size()), loaded->model);
  size_t accepted = 0;
  for (uint8_t v : predicted) accepted += v;

  std::vector<double> thresholds;
  {
    const std::string spec =
        flags.Get("thresholds", "0,0.05,0.1,0.15,0.2,0.3,0.4,0.5");
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string item = spec.substr(pos, comma - pos);
      if (!item.empty()) thresholds.push_back(std::atof(item.c_str()));
      pos = comma + 1;
    }
    if (thresholds.empty()) {
      std::fprintf(stderr, "error: --thresholds has no values\n");
      return 1;
    }
  }

  // Per-pair overlap estimates, computed once: the sweep is then a scan.
  std::vector<skyex::features::EntitySketch> sketches(p.dataset.size());
  for (size_t i = 0; i < p.dataset.size(); ++i) {
    sketches[i].name = skyex::features::BuildTokenSketch(
        skyex::text::Normalize(p.dataset[i].name));
    sketches[i].addr = skyex::features::BuildTokenSketch(
        skyex::text::Normalize(p.dataset[i].address_name));
  }
  std::vector<double> estimates(p.pairs.size());
  for (size_t k = 0; k < p.pairs.size(); ++k) {
    estimates[k] = skyex::features::EstimatePair(
        sketches[p.pairs[k].first], sketches[p.pairs[k].second]);
  }

  std::string json = "{\n  \"pairs\": " + std::to_string(p.pairs.size()) +
                     ",\n  \"accepted\": " + std::to_string(accepted) +
                     ",\n  \"thresholds\": [\n";
  char buf[256];
  for (size_t t = 0; t < thresholds.size(); ++t) {
    size_t dropped = 0;
    size_t accepted_dropped = 0;
    if (thresholds[t] > 0.0) {
      for (size_t k = 0; k < p.pairs.size(); ++k) {
        if (estimates[k] < thresholds[t]) {
          ++dropped;
          accepted_dropped += predicted[k];
        }
      }
    }
    const double drop_rate =
        p.pairs.empty() ? 0.0
                         : static_cast<double>(dropped) /
                               static_cast<double>(p.pairs.size());
    const double recall =
        accepted == 0 ? 1.0
                      : static_cast<double>(accepted - accepted_dropped) /
                            static_cast<double>(accepted);
    std::snprintf(buf, sizeof(buf),
                  "    {\"threshold\": %g, \"dropped\": %zu, "
                  "\"drop_rate\": %.6f, \"accepted_dropped\": %zu, "
                  "\"recall\": %.6f}%s\n",
                  thresholds[t], dropped, drop_rate, accepted_dropped,
                  recall, t + 1 < thresholds.size() ? "," : "");
    json += buf;
    std::fprintf(stderr,
                 "prefilter-eval: threshold=%.3f drop_rate=%.4f "
                 "recall=%.4f\n",
                 thresholds[t], drop_rate, recall);
  }
  json += "  ]\n}\n";
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream file(out);
    file << json;
    if (!file.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("prefilter curve written to %s\n", out.c_str());
  }
  return 0;
}

int CmdEval(const Flags& flags) {
  const auto model = LoadProjectedModel(flags.Get("model", "model.txt"));
  if (!model.has_value()) return 1;
  const auto p = LoadPipeline(flags.Get("in", "entities.csv"), &model->columns);
  if (!p.has_value()) return 1;
  const auto predicted = SkyExT::Label(
      p->features, skyex::core::AllRows(p->pairs.size()), model->model);
  ReportAgainstRule(*p, predicted);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (skyex::tools::HandleVersion(argc, argv, "skyex")) return 0;
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::optional<Flags> flags;
  int (*run)(const Flags&) = nullptr;
  if (command == "generate") {
    flags = ParseFlags(argc, argv, 2,
                       {{"dataset", FlagType::kString},
                        {"entities", FlagType::kSize},
                        {"seed", FlagType::kSize},
                        {"out", FlagType::kString}});
    run = CmdGenerate;
  } else if (command == "train") {
    flags = ParseFlags(argc, argv, 2,
                       {{"in", FlagType::kString},
                        {"train-fraction", FlagType::kDouble},
                        {"seed", FlagType::kSize},
                        {"model-out", FlagType::kString},
                        {"profile-out", FlagType::kString},
                        {"no-profile", FlagType::kBool}});
    run = CmdTrain;
  } else if (command == "apply") {
    flags = ParseFlags(argc, argv, 2,
                       {{"in", FlagType::kString},
                        {"model", FlagType::kString},
                        {"out", FlagType::kString}});
    run = CmdApply;
  } else if (command == "link") {
    flags = ParseFlags(argc, argv, 2,
                       {{"in", FlagType::kString},
                        {"model", FlagType::kString},
                        {"train-fraction", FlagType::kDouble},
                        {"seed", FlagType::kSize},
                        {"out", FlagType::kString}});
    run = CmdLink;
  } else if (command == "eval") {
    flags = ParseFlags(argc, argv, 2,
                       {{"in", FlagType::kString},
                        {"model", FlagType::kString}});
    run = CmdEval;
  } else if (command == "prefilter-eval") {
    flags = ParseFlags(argc, argv, 2,
                       {{"in", FlagType::kString},
                        {"model", FlagType::kString},
                        {"train-fraction", FlagType::kDouble},
                        {"seed", FlagType::kSize},
                        {"thresholds", FlagType::kString},
                        {"out", FlagType::kString}});
    run = CmdPrefilterEval;
  } else {
    return Usage();
  }

  if (!flags.has_value()) return 2;
  // Outside (0, 1] the training sample is one pair or every pair, never
  // the fraction asked for. NaN fails the test as well.
  if (flags->Has("train-fraction")) {
    const double fraction = flags->GetDouble("train-fraction", 0.0);
    if (!(fraction > 0.0 && fraction <= 1.0)) {
      std::fprintf(stderr,
                   "error: invalid value '%s' for --train-fraction "
                   "(expected a number in (0, 1])\n",
                   flags->Get("train-fraction").c_str());
      return 2;
    }
  }
  if (!ObsSetup(*flags)) return 2;
  const int rc = run(*flags);
  const int obs_rc = ObsFinish(*flags);
  return rc != 0 ? rc : obs_rc;
}
