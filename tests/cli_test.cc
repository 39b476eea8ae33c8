// Integration test of the `skyex` command-line tool: drives the real
// binary end-to-end (generate → train → apply → link → eval) through
// std::system and checks the produced artifacts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "data/csv.h"

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
