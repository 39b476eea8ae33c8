// Unit tests for the fault-injection registry (src/fault/): spec
// parsing, trigger semantics (p / after / every, times cap), the
// determinism contract of the probabilistic trigger, disarming, and the
// firing counters. The registry is a process-global singleton, so every
// test runs behind a fixture that disarms everything around it.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"

namespace skyex {
namespace {

using fault::FaultAction;
using fault::FaultConfig;
using fault::Registry;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Global().DisarmAll(); }
  void TearDown() override { Registry::Global().DisarmAll(); }
};

// Replays `hits` hits of `point` and returns the firing pattern.
std::vector<bool> FiringPattern(const char* point, size_t hits) {
  std::vector<bool> out;
  out.reserve(hits);
  for (size_t i = 0; i < hits; ++i) {
    out.push_back(SKYEX_FAULT_FIRE(point, nullptr));
  }
  return out;
}

TEST_F(FaultTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(Registry::Global().armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SKYEX_FAULT_FIRE("test.unarmed", nullptr));
  }
  // An unarmed point records nothing at all.
  EXPECT_EQ(Registry::Global().Hits("test.unarmed"), 0u);
}

TEST_F(FaultTest, EveryTriggerFiresOnExactMultiples) {
  FaultConfig config;
  config.every = 3;
  Registry::Global().Arm("test.every", config);
  EXPECT_TRUE(Registry::Global().armed());

  const std::vector<bool> pattern = FiringPattern("test.every", 9);
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(pattern, expected);
  EXPECT_EQ(Registry::Global().Hits("test.every"), 9u);
  EXPECT_EQ(Registry::Global().Firings("test.every"), 3u);
}

TEST_F(FaultTest, AfterTriggerFiresFromThresholdOnward) {
  FaultConfig config;
  config.after = 5;
  Registry::Global().Arm("test.after", config);

  const std::vector<bool> pattern = FiringPattern("test.after", 7);
  const std::vector<bool> expected = {false, false, false, false,
                                      true,  true,  true};
  EXPECT_EQ(pattern, expected);
}

TEST_F(FaultTest, TimesCapsTotalFirings) {
  FaultConfig config;
  config.every = 1;
  config.times = 2;
  Registry::Global().Arm("test.times", config);

  const std::vector<bool> pattern = FiringPattern("test.times", 5);
  const std::vector<bool> expected = {true, true, false, false, false};
  EXPECT_EQ(pattern, expected);
  EXPECT_EQ(Registry::Global().Firings("test.times"), 2u);
}

TEST_F(FaultTest, ActionCarriesMsAndErrno) {
  FaultConfig config;
  config.after = 1;
  config.ms = 42.5;
  config.error_number = 104;  // ECONNRESET
  Registry::Global().Arm("test.action", config);

  FaultAction action;
  ASSERT_TRUE(SKYEX_FAULT_FIRE("test.action", &action));
  EXPECT_DOUBLE_EQ(action.ms, 42.5);
  EXPECT_EQ(action.error_number, 104);
}

TEST_F(FaultTest, ProbabilisticScheduleIsDeterministic) {
  FaultConfig config;
  config.probability = 0.3;
  config.seed = 42;
  Registry::Global().Arm("test.prob", config);
  const std::vector<bool> first = FiringPattern("test.prob", 1000);

  // Re-arming resets the hit counter: the schedule replays exactly.
  Registry::Global().Arm("test.prob", config);
  const std::vector<bool> second = FiringPattern("test.prob", 1000);
  EXPECT_EQ(first, second);

  size_t fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 200u);  // ~300 expected; generous tolerance
  EXPECT_LT(fired, 400u);
}

TEST_F(FaultTest, DifferentSeedsGiveDifferentSchedules) {
  FaultConfig config;
  config.probability = 0.3;
  config.seed = 42;
  Registry::Global().Arm("test.seed", config);
  const std::vector<bool> a = FiringPattern("test.seed", 200);

  config.seed = 43;
  Registry::Global().Arm("test.seed", config);
  const std::vector<bool> b = FiringPattern("test.seed", 200);
  EXPECT_NE(a, b);
}

TEST_F(FaultTest, DefaultSeedDerivesFromPointName) {
  // Same config, different names: the name-derived default seeds give
  // the two points independent schedules.
  FaultConfig config;
  config.probability = 0.3;
  Registry::Global().Arm("test.name_a", config);
  Registry::Global().Arm("test.name_b", config);
  EXPECT_NE(FiringPattern("test.name_a", 200),
            FiringPattern("test.name_b", 200));
}

TEST_F(FaultTest, ScheduleIsStableUnderOtherPointsInterleaving) {
  // The per-hit decision depends only on (seed, hit index) of the
  // point itself — hammering a second point in between must not shift
  // the schedule.
  FaultConfig config;
  config.probability = 0.5;
  config.seed = 7;
  Registry::Global().Arm("test.stable", config);
  const std::vector<bool> baseline = FiringPattern("test.stable", 100);

  Registry::Global().Arm("test.stable", config);
  FaultConfig other;
  other.probability = 0.9;
  Registry::Global().Arm("test.other", other);
  std::vector<bool> interleaved;
  for (size_t i = 0; i < 100; ++i) {
    SKYEX_FAULT_FIRE("test.other", nullptr);
    interleaved.push_back(SKYEX_FAULT_FIRE("test.stable", nullptr));
    SKYEX_FAULT_FIRE("test.other", nullptr);
  }
  EXPECT_EQ(baseline, interleaved);
}

TEST_F(FaultTest, ConcurrentHitsFireExactlyTimes) {
  // The times cap must hold under concurrency: the firing-slot
  // reservation makes over-firing impossible however threads race.
  FaultConfig config;
  config.every = 1;
  config.times = 10;
  Registry::Global().Arm("test.race", config);

  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&fired] {
      for (int i = 0; i < 100; ++i) {
        if (SKYEX_FAULT_FIRE("test.race", nullptr)) fired.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fired.load(), 10u);
  EXPECT_EQ(Registry::Global().Firings("test.race"), 10u);
  EXPECT_EQ(Registry::Global().Hits("test.race"), 800u);
}

TEST_F(FaultTest, ArmSpecParsesTheFullGrammar) {
  std::string error;
  ASSERT_TRUE(Registry::Global().ArmSpec(
      "a.x:p=0.25,seed=9;b.y:after=3,times=2,ms=15.5,errno=104;"
      "c.z:every=4",
      &error))
      << error;
  const std::vector<std::string> points =
      Registry::Global().ArmedPoints();
  EXPECT_EQ(points, (std::vector<std::string>{"a.x", "b.y", "c.z"}));

  // b.y: hits 3 and 4 fire (after=3 capped at times=2), with params.
  EXPECT_FALSE(SKYEX_FAULT_FIRE("b.y", nullptr));
  EXPECT_FALSE(SKYEX_FAULT_FIRE("b.y", nullptr));
  FaultAction action;
  EXPECT_TRUE(SKYEX_FAULT_FIRE("b.y", &action));
  EXPECT_DOUBLE_EQ(action.ms, 15.5);
  EXPECT_EQ(action.error_number, 104);
  EXPECT_TRUE(SKYEX_FAULT_FIRE("b.y", nullptr));
  EXPECT_FALSE(SKYEX_FAULT_FIRE("b.y", nullptr));
}

TEST_F(FaultTest, ArmSpecRejectsMalformedSpecsAtomically) {
  const struct {
    const char* spec;
    const char* why;
  } kBad[] = {
      {"a.x:p=0.5;:p=0.5", "empty point name"},
      {"a.x:p", "argument without ="},
      {"a.x:p=1.5", "probability out of range"},
      {"a.x:p=abc", "non-numeric probability"},
      {"a.x:after=-1", "negative count"},
      {"a.x:bogus=1", "unknown argument"},
      {"a.x:ms=5", "no trigger at all"},
      {"a.x", "no trigger at all (bare point)"},
  };
  for (const auto& bad : kBad) {
    std::string error;
    EXPECT_FALSE(Registry::Global().ArmSpec(bad.spec, &error)) << bad.why;
    EXPECT_FALSE(error.empty()) << bad.spec;
    // Parse-before-arm: a bad spec must not arm its valid prefix.
    EXPECT_TRUE(Registry::Global().ArmedPoints().empty()) << bad.spec;
  }
  EXPECT_FALSE(Registry::Global().armed());
}

TEST_F(FaultTest, DisarmStopsOnePointAndDisarmAllClearsTheGate) {
  FaultConfig config;
  config.every = 1;
  Registry::Global().Arm("test.one", config);
  Registry::Global().Arm("test.two", config);
  EXPECT_TRUE(SKYEX_FAULT_FIRE("test.one", nullptr));

  Registry::Global().Disarm("test.one");
  EXPECT_FALSE(SKYEX_FAULT_FIRE("test.one", nullptr));
  EXPECT_TRUE(SKYEX_FAULT_FIRE("test.two", nullptr));
  EXPECT_TRUE(Registry::Global().armed());

  Registry::Global().Disarm("test.two");
  EXPECT_FALSE(Registry::Global().armed());
  EXPECT_FALSE(SKYEX_FAULT_FIRE("test.two", nullptr));
}

// Serving threads fire points while a test or an operator re-arms and
// disarms them. Under TSan this pins that Fire reads no point state that
// Arm rewrites or DisarmAll frees.
TEST_F(FaultTest, FiringWhileArmingAndDisarmingIsRaceFree) {
  std::atomic<bool> stop{false};
  std::thread firer([&stop] {
    FaultAction action;
    while (!stop.load(std::memory_order_relaxed)) {
      if (SKYEX_FAULT_FIRE("test.race", &action)) {
        EXPECT_GE(action.ms, 1.0);
      }
    }
  });
  std::string error;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(Registry::Global().ArmSpec(
        "test.race:every=" + std::to_string(1 + i % 3) +
            ",ms=" + std::to_string(1 + i % 7),
        &error))
        << error;
    if (i % 2 == 0) {
      Registry::Global().DisarmAll();
    } else {
      Registry::Global().Disarm("test.race");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  firer.join();
  EXPECT_FALSE(Registry::Global().armed());
}

TEST_F(FaultTest, EmptySpecAndEmptyEntriesAreFine) {
  std::string error;
  EXPECT_TRUE(Registry::Global().ArmSpec("", &error));
  EXPECT_TRUE(Registry::Global().ArmSpec(";;", &error));
  EXPECT_FALSE(Registry::Global().armed());
}

}  // namespace
}  // namespace skyex
