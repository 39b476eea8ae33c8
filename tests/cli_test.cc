// Integration test of the `skyex` command-line tool: drives the real
// binary end-to-end (generate → train → apply → link → eval) through
// std::system and checks the produced artifacts.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/linker.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/csv.h"
#include "data/ground_truth.h"
#include "eval/sampling.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "obs/json.h"

#ifndef SKYEX_CLI_PATH
#define SKYEX_CLI_PATH "build/tools/skyex"
#endif

namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

int RunCli(const std::string& args) {
  const std::string command =
      std::string(SKYEX_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

// Runs the CLI with stderr (the structured log) captured in `log`.
int RunCliLogging(const std::string& args, std::string* log) {
  const std::string log_path = TempPath(
      std::string("cli_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_stderr.txt");
  const std::string command = std::string(SKYEX_CLI_PATH) + " " + args +
                              " > /dev/null 2> " + log_path;
  const int status = std::system(command.c_str());
  std::ifstream in(log_path);
  log->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  std::remove(log_path.c_str());
  return status;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs the cases as parallel processes: keep files unique per
    // test.
    const std::string prefix =
        std::string("cli_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_";
    entities_ = TempPath(prefix + "entities.csv");
    model_ = TempPath(prefix + "model.txt");
    matches_ = TempPath(prefix + "matches.csv");
    linked_ = TempPath(prefix + "linked.csv");
  }
  void TearDown() override {
    for (const std::string* p : {&entities_, &model_, &matches_, &linked_}) {
      std::remove(p->c_str());
    }
  }
  std::string entities_, model_, matches_, linked_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  EXPECT_NE(RunCli(""), 0);
  EXPECT_NE(RunCli("bogus-command"), 0);
}

TEST_F(CliTest, FullWorkflow) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=600 --seed=3 --out=" +
                entities_),
            0);
  skyex::data::Dataset dataset;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(entities_, &dataset));
  EXPECT_EQ(dataset.size(), 600u);

  ASSERT_EQ(RunCli("train --in=" + entities_ +
                " --train-fraction=0.08 --seed=5 --model-out=" + model_),
            0);
  std::ifstream model_file(model_);
  std::string line;
  ASSERT_TRUE(std::getline(model_file, line));
  EXPECT_EQ(line.rfind("preference: ", 0), 0u);

  ASSERT_EQ(
      RunCli("apply --in=" + entities_ + " --model=" + model_ +
          " --out=" + matches_),
      0);
  std::ifstream matches_file(matches_);
  size_t match_lines = 0;
  while (std::getline(matches_file, line)) ++match_lines;
  EXPECT_GT(match_lines, 10u);  // header + a reasonable match count

  ASSERT_EQ(RunCli("link --in=" + entities_ + " --model=" + model_ +
                " --out=" + linked_),
            0);
  skyex::data::Dataset merged;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(linked_, &merged));
  EXPECT_LT(merged.size(), dataset.size());
  EXPECT_GT(merged.size(), dataset.size() / 2);

  EXPECT_EQ(RunCli("eval --in=" + entities_ + " --model=" + model_), 0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The thread count changes wall-clock, never results
// (docs/parallelism.md): the pool runs the MI pairs of training and the
// skyline peels of training and labelling.
TEST_F(CliTest, LinkIsIdenticalAcrossThreadCounts) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=2000 --seed=7 "
                   "--out=" + entities_),
            0);
  std::string linked[2];
  std::string models[2];
  std::string profiles[2];
  for (const int threads : {1, 2}) {
    const std::string suffix = std::to_string(threads);
    const std::string threads_flag = " --threads=" + suffix;
    const std::string out = linked_ + suffix;
    const std::string model = model_ + suffix;
    ASSERT_EQ(RunCli("link --in=" + entities_ + " --out=" + out +
                     threads_flag),
              0);
    ASSERT_EQ(RunCli("train --in=" + entities_ + " --model-out=" + model +
                     threads_flag),
              0);
    linked[threads - 1] = ReadFile(out);
    models[threads - 1] = ReadFile(model);
    profiles[threads - 1] = ReadFile(model + ".profile");
    for (const std::string& path : {out, model, model + ".profile"}) {
      std::remove(path.c_str());
    }
  }
  ASSERT_FALSE(linked[0].empty());
  ASSERT_FALSE(models[0].empty());
  ASSERT_FALSE(profiles[0].empty());
  EXPECT_TRUE(linked[0] == linked[1]) << "linked.csv differs";
  EXPECT_TRUE(models[0] == models[1]) << "model differs";
  EXPECT_TRUE(profiles[0] == profiles[1]) << "profile differs";
}

// `apply` and `link --model` extract only the columns the model reads.
// The reference is the full-matrix path they replaced: every LGM-X
// column, then SkyExT::Label / core::LinkEntities with the saved model.
TEST_F(CliTest, ModelCommandsWriteTheFullMatrixPathsBytes) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=2000 --seed=7 "
                   "--out=" + entities_),
            0);
  ASSERT_EQ(RunCli("train --in=" + entities_ + " --no-profile --model-out=" +
                   model_),
            0);
  ASSERT_EQ(RunCli("apply --in=" + entities_ + " --model=" + model_ +
                   " --out=" + matches_),
            0);
  ASSERT_EQ(RunCli("link --in=" + entities_ + " --model=" + model_ +
                   " --out=" + linked_),
            0);

  skyex::data::Dataset dataset;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(entities_, &dataset));
  const auto model = skyex::core::LoadModelFromFile(model_);
  ASSERT_TRUE(model.has_value());
  const std::vector<skyex::geo::CandidatePair> pairs =
      skyex::geo::BlockPoints(dataset.Points());
  const skyex::ml::FeatureMatrix full =
      skyex::features::LgmXExtractor::FromCorpus(dataset).Extract(dataset,
                                                                  pairs);
  const std::vector<uint8_t> predicted = skyex::core::SkyExT::Label(
      full, skyex::core::AllRows(pairs.size()), *model);
  std::ostringstream matches;
  matches << "id_a,name_a,id_b,name_b\n";
  size_t matched = 0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (!predicted[k]) continue;
    const auto& [i, j] = pairs[k];
    matches << dataset[i].id << ','
            << skyex::data::EscapeCsvField(dataset[i].name) << ','
            << dataset[j].id << ','
            << skyex::data::EscapeCsvField(dataset[j].name) << '\n';
    ++matched;
  }
  EXPECT_GT(matched, 100u);
  EXPECT_TRUE(ReadFile(matches_) == matches.str()) << "matches.csv differs";

  skyex::data::Dataset merged;
  for (const auto& entity :
       skyex::core::LinkEntities(dataset, full, pairs, *model)) {
    merged.entities.push_back(entity.merged);
  }
  const std::string reference = linked_ + ".full";
  ASSERT_TRUE(skyex::data::WriteDatasetCsv(merged, reference));
  const std::string want = ReadFile(reference);
  std::remove(reference.c_str());
  EXPECT_TRUE(ReadFile(linked_) == want) << "linked.csv differs";
}

// Without --model, `link` and `prefilter-eval` train in two passes
// (core/two_pass.h), and `train` keeps the full matrix. The reference is
// the one-pass path: every LGM-X column, SkyExT::Train on 4% of the
// pairs (seed 42) with the MI step over all of them, then
// core::LinkEntities / SkyExT::Label on the full matrix. The 2,000-record
// world has more pairs than max_mi_rows, so the MI rows are thinned.
TEST_F(CliTest, TrainingCommandsWriteTheOnePassPathsBytes) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=2000 --seed=7 "
                   "--out=" + entities_),
            0);
  const std::string curve = TempPath("cli_one_pass_curve.json");
  const std::string model_curve = TempPath("cli_one_pass_model_curve.json");
  ASSERT_EQ(RunCli("train --in=" + entities_ + " --no-profile --model-out=" +
                   model_),
            0);
  ASSERT_EQ(RunCli("link --in=" + entities_ + " --out=" + linked_), 0);
  ASSERT_EQ(RunCli("prefilter-eval --in=" + entities_ + " --out=" + curve),
            0);
  ASSERT_EQ(RunCli("prefilter-eval --in=" + entities_ + " --model=" +
                   model_ + " --out=" + model_curve),
            0);

  skyex::data::Dataset dataset;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(entities_, &dataset));
  const std::vector<skyex::geo::CandidatePair> pairs =
      skyex::geo::BlockPoints(dataset.Points());
  ASSERT_GT(pairs.size(), skyex::core::FeatureSelectionOptions().max_mi_rows);
  const skyex::ml::FeatureMatrix full =
      skyex::features::LgmXExtractor::FromCorpus(dataset).Extract(dataset,
                                                                  pairs);
  const std::vector<size_t> all_rows = skyex::core::AllRows(pairs.size());
  const skyex::core::SkyExTModel model = skyex::core::SkyExT().Train(
      full, skyex::data::LabelPairs(dataset, pairs),
      skyex::eval::RandomSplit(pairs.size(), 0.04, 42).train, &all_rows);
  EXPECT_TRUE(ReadFile(model_) == skyex::core::SaveModel(model))
      << "model differs";

  skyex::data::Dataset merged;
  for (const auto& entity :
       skyex::core::LinkEntities(dataset, full, pairs, model)) {
    merged.entities.push_back(entity.merged);
  }
  const std::string reference = linked_ + ".full";
  ASSERT_TRUE(skyex::data::WriteDatasetCsv(merged, reference));
  const std::string want = ReadFile(reference);
  std::remove(reference.c_str());
  EXPECT_TRUE(ReadFile(linked_) == want) << "linked.csv differs";

  // The curve reads only which pairs the model accepts: the saved
  // one-pass model's curve, over the one-pass labels.
  size_t accepted = 0;
  for (const uint8_t v : skyex::core::SkyExT::Label(full, all_rows, model)) {
    accepted += v;
  }
  const std::string got = ReadFile(curve);
  EXPECT_NE(got.find("\"accepted\": " + std::to_string(accepted) + ","),
            std::string::npos)
      << got;
  EXPECT_TRUE(got == ReadFile(model_curve)) << "prefilter curve differs";
  std::remove(curve.c_str());
  std::remove(model_curve.c_str());
}

// Outside (0, 1] the sample is one pair or every pair, never the
// fraction asked for; each training command refuses such a value as a
// usage error before reading its input.
TEST_F(CliTest, TrainFractionOutsideTheUnitIntervalIsRefused) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=300 --seed=3 "
                   "--out=" + entities_),
            0);
  const std::string in = " --in=" + entities_;
  for (const std::string& command :
       {"train" + in + " --no-profile --model-out=" + model_,
        "link" + in + " --out=" + linked_, "prefilter-eval" + in}) {
    for (const std::string fraction : {"0", "-0.5", "1.5", "nan"}) {
      std::string log;
      const int status =
          RunCliLogging(command + " --train-fraction=" + fraction, &log);
      ASSERT_TRUE(WIFEXITED(status)) << command;
      EXPECT_EQ(WEXITSTATUS(status), 2) << command << " " << fraction;
      EXPECT_NE(log.find("error: invalid value '" + fraction +
                         "' for --train-fraction (expected a number in "
                         "(0, 1])"),
                std::string::npos)
          << command << ": " << log;
    }
    EXPECT_EQ(RunCli(command + " --train-fraction=1"), 0) << command;
  }
}

// prefilter-eval prints its thresholds into JSON, so each must be a
// finite number; a bad item (or an empty list) is a usage error that
// names the item. The first bad item of a list is the one named.
TEST_F(CliTest, PrefilterEvalThresholdsMustBeFinite) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=300 --seed=3 "
                   "--out=" + entities_),
            0);
  const std::string command = "prefilter-eval --in=" + entities_;
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"nan,abc,-1,1e400,0.1", "'nan'"}, {"0.1,abc", "'abc'"},
      {"1e400", "'1e400'"},              {"0,inf", "'inf'"},
      {"-inf", "'-inf'"},                {"0.1,0.2x", "'0.2x'"}};
  for (const auto& [list, item] : refused) {
    std::string log;
    const int status = RunCliLogging(command + " --thresholds=" + list, &log);
    ASSERT_TRUE(WIFEXITED(status)) << list;
    EXPECT_EQ(WEXITSTATUS(status), 2) << list;
    EXPECT_NE(log.find("error: invalid value " + item +
                       " in --thresholds (expected a finite number)"),
              std::string::npos)
        << list << ": " << log;
  }
  for (const std::string empty : {"", ","}) {
    std::string log;
    const int status = RunCliLogging(command + " --thresholds=" + empty, &log);
    ASSERT_TRUE(WIFEXITED(status)) << empty;
    EXPECT_EQ(WEXITSTATUS(status), 2) << empty;
    EXPECT_NE(log.find("error: --thresholds has no values"),
              std::string::npos)
        << log;
  }

  const std::string out_path = TempPath("cli_prefilter_eval_stdout.json");
  const std::string run = std::string(SKYEX_CLI_PATH) + " " + command +
                          " --thresholds=0,0.1 > " + out_path +
                          " 2> /dev/null";
  const int status = std::system(run.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::string error;
  const auto doc = skyex::obs::json::Parse(ReadFile(out_path), &error);
  std::remove(out_path.c_str());
  ASSERT_TRUE(doc.has_value()) << error;
  const skyex::obs::json::Value* thresholds = doc->Find("thresholds");
  ASSERT_NE(thresholds, nullptr);
  ASSERT_TRUE(thresholds->is_array());
  EXPECT_EQ(thresholds->array_v.size(), 2u);
}

// A world without pairs (one record) trains on none and links each
// record to itself.
TEST_F(CliTest, LinkWithoutPairsKeepsEveryRecord) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=1 --seed=3 "
                   "--out=" + entities_),
            0);
  ASSERT_EQ(RunCli("link --in=" + entities_ + " --out=" + linked_), 0);
  skyex::data::Dataset merged;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(linked_, &merged));
  EXPECT_EQ(merged.size(), 1u);
}

// A model may parse yet read a feature index past the 88-column schema.
// Every command that loads one refuses it before reading any row, with
// the message skyex_serve gives.
TEST_F(CliTest, ModelReadingOutsideTheSchemaIsRejected) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=300 --seed=3 "
                   "--out=" + entities_),
            0);
  {
    std::ofstream model(model_);
    model << "preference: high(100) > high(3)\ncutoff_ratio: 0.05\n";
  }
  const std::string io = " --in=" + entities_ + " --model=" + model_;
  for (const std::string& command :
       {"apply" + io + " --out=" + matches_, "eval" + io,
        "link" + io + " --out=" + linked_, "prefilter-eval" + io}) {
    std::string log;
    EXPECT_NE(RunCliLogging(command, &log), 0) << command;
    EXPECT_NE(log.find("model references feature index 100 but the LGM-X "
                       "schema has 88 features"),
              std::string::npos)
        << command << ": " << log;
  }
}

TEST_F(CliTest, CoordinateLessFirstRowStillBlocksWithQuadFlex) {
  ASSERT_EQ(RunCli("generate --dataset=northdk --entities=600 --seed=3 --out=" +
                entities_),
            0);
  skyex::data::Dataset dataset;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(entities_, &dataset));
  dataset.entities.front().location = skyex::geo::GeoPoint::Invalid();
  ASSERT_TRUE(skyex::data::WriteDatasetCsv(dataset, entities_));
  std::string log;
  ASSERT_EQ(RunCliLogging("train --in=" + entities_ +
                              " --train-fraction=0.08 --seed=5 --model-out=" +
                              model_,
                          &log),
            0);
  EXPECT_NE(log.find("blocker=\"quadflex\""), std::string::npos) << log;
  // Not all 600 * 599 / 2 = 179,700 pairs.
  EXPECT_EQ(log.find("pairs=179700"), std::string::npos) << log;
}

TEST_F(CliTest, RestaurantsGeneration) {
  ASSERT_EQ(RunCli("generate --dataset=restaurants --out=" + entities_), 0);
  skyex::data::Dataset dataset;
  ASSERT_TRUE(skyex::data::ReadDatasetCsv(entities_, &dataset));
  EXPECT_EQ(dataset.size(), 864u);
}

TEST_F(CliTest, MissingInputsFailCleanly) {
  EXPECT_NE(RunCli("train --in=/nonexistent.csv"), 0);
  EXPECT_NE(RunCli("apply --in=/nonexistent.csv --model=/nonexistent.txt"), 0);
}

}  // namespace
