// Sampling-profiler + heap-attribution suite: sample-ring wraparound
// and seqlock behavior, PhaseScope/HeapZone nesting, exact per-zone
// allocation accounting, signal-storm safety under ParallelFor, and
// the collapsed-stack / JSON export formats. Tests that need live
// timers GTEST_SKIP when the platform refuses them (non-Linux).

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "par/parallel_for.h"
#include "prof/heap.h"
#include "prof/prof.h"

// External linkage + noinline so the frame survives optimization and
// dladdr can name it in the collapsed output (-rdynamic build).
// noipa (not just noinline): GCC otherwise emits a constprop clone with a
// local symbol that dladdr cannot name, and the test below greps for the
// symbolized frame.
extern "C" __attribute__((noipa)) double skyex_prof_test_burn(
    int iterations) {
  volatile double accumulator = 0.0;
  for (int i = 0; i < iterations; ++i) {
    accumulator = accumulator + static_cast<double>(i % 97) * 1e-9;
  }
  return accumulator;
}

namespace skyex {
namespace {

// Returns its caller's return address: a program counter inside the
// caller's body.
__attribute__((noinline)) void* CallerPc() {
  return __builtin_return_address(0);
}

// Internal linkage: the dynamic symbol table dladdr reads does not list
// this function, only the executable's .symtab does. Returns a program
// counter inside its own body.
__attribute__((noinline)) void* PcInsideLocalFunction() {
  void* volatile pc = CallerPc();  // volatile: no tail call
  return pc;
}

class ProfTest : public ::testing::Test {
 protected:
  void TearDown() override {
    prof::CpuProfiler::Global().Stop();
    prof::CpuProfiler::Global().DiscardPending();
  }
};

// A sample whose every frame is `id`, so a torn copy would show.
prof::Sample MakeSample(uint64_t id, uint32_t depth) {
  prof::Sample sample;
  sample.request_id = id;
  sample.depth = depth;
  for (uint32_t i = 0; i < depth; ++i) {
    sample.frames[i] = reinterpret_cast<void*>(id);
  }
  return sample;
}

TEST_F(ProfTest, RingDeliversCommittedSamplesInOrder) {
  prof::SampleRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) ring.Write(MakeSample(i, 1));
  std::vector<prof::Sample> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].request_id, i);
    EXPECT_EQ(out[i].depth, 1u);
    EXPECT_EQ(out[i].frames[0], reinterpret_cast<void*>(i));
  }
  EXPECT_EQ(ring.dropped(), 0u);

  // A second drain finds nothing new.
  out.clear();
  ring.Drain(&out);
  EXPECT_TRUE(out.empty());
}

TEST_F(ProfTest, RingWraparoundKeepsNewestAndCountsDropped) {
  prof::SampleRing ring(8);  // capacity rounds to 8
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) ring.Write(MakeSample(i, 0));
  std::vector<prof::Sample> out;
  EXPECT_EQ(ring.Drain(&out), 12u);
  // The oldest 12 were overwritten; the newest 8 survive in order.
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].request_id, 12 + i);
  }
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.total(), 20u);
}

// Drops belong to the drain that finds them: samples a ring lost before
// a window opened (the DiscardPending() drain) are not reported again by
// the drain that closes the window. The lifetime count keeps them.
TEST_F(ProfTest, RingLappedBeforeDiscardReportsNoDropsToTheNextWindow) {
  prof::SampleRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) ring.Write(MakeSample(i, 0));
  std::vector<prof::Sample> out;
  EXPECT_EQ(ring.Drain(&out), 12u);  // discarded: the window opens
  out.clear();
  for (uint64_t i = 20; i < 23; ++i) ring.Write(MakeSample(i, 0));
  EXPECT_EQ(ring.Drain(&out), 0u);  // the window closes
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request_id, 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.total(), 23u);
}

TEST_F(ProfTest, RingConcurrentWriteDrainLosesNothingButTornSlots) {
  prof::SampleRing ring(64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Full depth maximizes the copy window.
      ring.Write(MakeSample(written.load(std::memory_order_relaxed),
                            prof::Sample::kMaxFrames));
      written.fetch_add(1, std::memory_order_relaxed);
    }
  });
  uint64_t drained = 0;
  uint64_t dropped = 0;
  uint64_t torn = 0;
  std::vector<prof::Sample> out;
  auto drain = [&] {
    out.clear();
    dropped += ring.Drain(&out);
    drained += out.size();
    for (const prof::Sample& sample : out) {
      for (uint32_t i = 0; i < sample.depth; ++i) {
        if (sample.frames[i] != reinterpret_cast<void*>(sample.request_id)) {
          ++torn;
          break;
        }
      }
    }
  };
  for (int i = 0; i < 200; ++i) {
    drain();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  writer.join();
  drain();
  // Conservation: every committed write is either delivered or counted
  // dropped (overwritten / torn), never silently lost; the per-drain
  // counts add up to the lifetime one.
  EXPECT_EQ(drained + ring.dropped(), written.load());
  EXPECT_EQ(dropped, ring.dropped());
  EXPECT_EQ(torn, 0u);
}

TEST_F(ProfTest, PhaseScopeNestsAndRestores) {
  EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kUntagged);
  {
    prof::PhaseScope outer(prof::Phase::kExtraction);
    EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kExtraction);
    EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kExtraction);
    {
      prof::PhaseScope inner(prof::Phase::kSkyline);
      EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kSkyline);
      EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kSkyline);
    }
    EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kExtraction);
    EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kExtraction);
  }
  EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kUntagged);
  EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kUntagged);
}

TEST_F(ProfTest, HeapZoneTagsWithoutTouchingCpuPhase) {
  prof::PhaseScope cpu(prof::Phase::kServe);
  {
    prof::HeapZone zone(prof::Phase::kTraining);
    EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kTraining);
    EXPECT_EQ(prof::CurrentPhase(), prof::Phase::kServe);  // untouched
  }
  EXPECT_EQ(prof::CurrentHeapZone(), prof::Phase::kServe);
}

TEST_F(ProfTest, PhaseFollowsPoolTasks) {
  constexpr size_t kItems = 64;
  std::vector<uint8_t> phases(kItems, 255);
  {
    prof::PhaseScope scope(prof::Phase::kBlocking);
    par::ForOptions options;
    options.grain = 1;
    par::ParallelFor(0, kItems, options, [&](size_t i) {
      phases[i] = static_cast<uint8_t>(prof::CurrentPhase());
    });
  }
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(phases[i], static_cast<uint8_t>(prof::Phase::kBlocking))
        << "item " << i;
  }
}

TEST_F(ProfTest, HeapZoneAttributionIsExact) {
  if (!prof::HeapHooksActive()) {
    GTEST_SKIP() << "allocation hooks compiled out (sanitizer build)";
  }
  constexpr size_t kBytes = 1 << 20;
  const prof::HeapZoneStats before =
      prof::HeapStatsFor(prof::Phase::kTraining);
  char* block = nullptr;
  {
    prof::HeapZone zone(prof::Phase::kTraining);
    block = new char[kBytes];
    block[0] = 1;
    block[kBytes - 1] = 2;
  }
  const prof::HeapZoneStats after_alloc =
      prof::HeapStatsFor(prof::Phase::kTraining);
  EXPECT_EQ(after_alloc.alloc_bytes - before.alloc_bytes, kBytes);
  EXPECT_EQ(after_alloc.allocs - before.allocs, 1u);

  // Freed outside the zone: the header still credits kTraining.
  delete[] block;
  const prof::HeapZoneStats after_free =
      prof::HeapStatsFor(prof::Phase::kTraining);
  EXPECT_EQ(after_free.freed_bytes - before.freed_bytes, kBytes);
  EXPECT_EQ(after_free.frees - before.frees, 1u);
  EXPECT_EQ(after_free.live_bytes, before.live_bytes);
  EXPECT_GE(after_free.peak_live_bytes,
            static_cast<uint64_t>(before.live_bytes) + kBytes);
}

TEST_F(ProfTest, AlignedAllocationsRoundTrip) {
  if (!prof::HeapHooksActive()) {
    GTEST_SKIP() << "allocation hooks compiled out";
  }
  struct alignas(64) Wide {
    char payload[192];
  };
  const prof::HeapZoneStats before =
      prof::HeapStatsFor(prof::Phase::kRanking);
  Wide* wide = nullptr;
  {
    prof::HeapZone zone(prof::Phase::kRanking);
    wide = new Wide();
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide) % 64, 0u);
  std::memset(wide->payload, 7, sizeof(wide->payload));
  delete wide;
  const prof::HeapZoneStats after =
      prof::HeapStatsFor(prof::Phase::kRanking);
  EXPECT_EQ(after.alloc_bytes - before.alloc_bytes, sizeof(Wide));
  EXPECT_EQ(after.freed_bytes - before.freed_bytes, sizeof(Wide));
}

TEST_F(ProfTest, SignalStormUnderParallelForIsSafe) {
  auto& profiler = prof::CpuProfiler::Global();
  std::string error;
  if (!profiler.Start(500, &error)) {
    GTEST_SKIP() << "profiler unavailable: " << error;
  }
  profiler.DiscardPending();
  // Storm: every pool worker burns CPU while its 500 Hz timer fires.
  par::ForOptions options;
  options.grain = 1;
  for (int round = 0; round < 3; ++round) {
    prof::PhaseScope scope(prof::Phase::kExtraction);
    par::ParallelFor(0, 16, options,
                     [](size_t) { skyex_prof_test_burn(2000000); });
  }
  const prof::Profile profile = profiler.Drain();
  profiler.Stop();
  EXPECT_GT(profile.samples, 0u);
  EXPECT_GT(profile.phase_samples[static_cast<size_t>(
                prof::Phase::kExtraction)],
            0u);
  for (const prof::Profile::Entry& entry : profile.entries) {
    EXPECT_GT(entry.count, 0u);
    EXPECT_LE(entry.frames.size(), prof::Sample::kMaxFrames);
  }
}

TEST_F(ProfTest, CollapsedOutputContainsKnownHotFunction) {
  auto& profiler = prof::CpuProfiler::Global();
  std::string error;
  if (!profiler.Start(997, &error)) {  // clamps to 1000
    GTEST_SKIP() << "profiler unavailable: " << error;
  }
  profiler.RegisterCurrentThread();
  profiler.DiscardPending();
  {
    prof::PhaseScope scope(prof::Phase::kExtraction);
    skyex_prof_test_burn(60000000);
  }
  const prof::Profile profile = profiler.Drain();
  profiler.Stop();
  ASSERT_GT(profile.samples, 0u);

  const std::string collapsed = prof::CollapseProfile(profile);
  ASSERT_FALSE(collapsed.empty());
  EXPECT_NE(collapsed.find("extraction;"), std::string::npos);
  EXPECT_NE(collapsed.find("skyex_prof_test_burn"), std::string::npos);

  // Every line parses as "frame[;frame...] count".
  std::istringstream lines(collapsed);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) ASSERT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GT(std::stoull(count), 0u);
  }
}

TEST_F(ProfTest, CollapseNamesLocalFunctions) {
  void* pc = PcInsideLocalFunction();
  ASSERT_NE(pc, nullptr);
  Dl_info info;
  ASSERT_TRUE(::dladdr(pc, &info) == 0 || info.dli_sname == nullptr)
      << "dladdr names the local function: " << info.dli_sname;

  prof::Profile profile;
  prof::Profile::Entry entry;
  entry.phase = prof::Phase::kServe;
  entry.frames = {pc};
  entry.count = 3;
  profile.entries.push_back(entry);
  const std::string collapsed = prof::CollapseProfile(profile);
  EXPECT_NE(collapsed.find("(anonymous namespace)::PcInsideLocalFunction"),
            std::string::npos)
      << collapsed;
}

TEST_F(ProfTest, ProfileJsonParses) {
  auto& profiler = prof::CpuProfiler::Global();
  std::string error;
  if (!profiler.Start(500, &error)) {
    GTEST_SKIP() << "profiler unavailable: " << error;
  }
  profiler.RegisterCurrentThread();
  profiler.DiscardPending();
  skyex_prof_test_burn(30000000);
  const prof::Profile profile = profiler.Drain();
  profiler.Stop();

  std::ostringstream out;
  prof::WriteProfileJson(out, profile);
  std::string parse_error;
  const auto parsed = obs::json::Parse(out.str(), &parse_error);
  ASSERT_TRUE(parsed.has_value()) << parse_error;
  ASSERT_TRUE(parsed->is_object());
  const auto* samples = parsed->Find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_TRUE(samples->is_number());
  const auto* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  EXPECT_NE(phases->Find("extraction"), nullptr);
  const auto* stacks = parsed->Find("stacks");
  ASSERT_NE(stacks, nullptr);
  EXPECT_TRUE(stacks->is_array());
}

TEST_F(ProfTest, HeapProfileJsonParses) {
  std::ostringstream out;
  prof::WriteHeapProfileJson(out);
  std::string parse_error;
  const auto parsed = obs::json::Parse(out.str(), &parse_error);
  ASSERT_TRUE(parsed.has_value()) << parse_error;
  const auto* zones = parsed->Find("zones");
  ASSERT_NE(zones, nullptr);
  for (size_t i = 0; i < prof::kPhaseCount; ++i) {
    EXPECT_NE(zones->Find(prof::PhaseName(static_cast<prof::Phase>(i))),
              nullptr);
  }
}

uint64_t HeapAllocBytes() {
  prof::HeapZoneStats zones[prof::kPhaseCount];
  prof::HeapStatsAll(zones);
  uint64_t total = 0;
  for (const prof::HeapZoneStats& zone : zones) total += zone.alloc_bytes;
  return total;
}

// A sample ring is 4,096 slots of ~408 B, so registering a thread while
// no sampler runs must not allocate one; once the profiler starts, that
// thread's samples must still arrive. The hand-offs block rather than
// spin, so no handler writes a ring while this test drains it.
TEST_F(ProfTest, RingAllocatedOnlyWhileSampling) {
  auto& profiler = prof::CpuProfiler::Global();
  ASSERT_FALSE(profiler.running());
  std::promise<uint64_t> registered;
  std::promise<void> started;
  std::promise<void> burned;
  std::promise<void> drained;
  std::thread worker([&] {
    const uint64_t before = HeapAllocBytes();
    profiler.RegisterCurrentThread();
    registered.set_value(HeapAllocBytes() - before);
    started.get_future().wait();
    {
      prof::PhaseScope scope(prof::Phase::kShard);
      skyex_prof_test_burn(60000000);
    }
    burned.set_value();
    drained.get_future().wait();  // keep the ring live through Drain
  });
  const uint64_t registration_bytes = registered.get_future().get();
  if (prof::HeapHooksActive()) {
    EXPECT_LT(registration_bytes, 64u * 1024u);
  }
  std::string error;
  const bool running = profiler.Start(1000, &error);
  started.set_value();
  burned.get_future().wait();
  profiler.Stop();
  const prof::Profile profile = profiler.Drain();
  drained.set_value();
  worker.join();
  if (!running) GTEST_SKIP() << "profiler unavailable: " << error;
  EXPECT_GT(profile.phase_samples[static_cast<size_t>(prof::Phase::kShard)],
            0u);
}

TEST_F(ProfTest, StartIsIdempotentAndStopDisarms) {
  auto& profiler = prof::CpuProfiler::Global();
  std::string error;
  if (!profiler.Start(100, &error)) {
    GTEST_SKIP() << "profiler unavailable: " << error;
  }
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.hz(), 100);
  EXPECT_TRUE(profiler.Start(250));  // no-op while running
  EXPECT_EQ(profiler.hz(), 100);
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
}

TEST_F(ProfTest, PhaseNamesAreStable) {
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kUntagged), "untagged");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kServe), "serve");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kBlocking), "blocking");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kExtraction), "extraction");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kSkyline), "skyline");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kRanking), "ranking");
  EXPECT_STREQ(prof::PhaseName(prof::Phase::kTraining), "training");
}

TEST(ProcessStatsTest, VitalsReadable) {
  const obs::ProcessStats stats = obs::SampleProcessStats();
#if defined(__linux__)
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_GE(stats.peak_rss_bytes, stats.rss_bytes);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.uptime_seconds, 0.0);
#else
  (void)stats;
#endif
}

TEST(ProcessStatsTest, GaugesPublish) {
  obs::PublishProcessGauges();
#if defined(__linux__)
  EXPECT_TRUE(
      obs::MetricsRegistry::Global().HasGauge("process/rss_bytes"));
  EXPECT_TRUE(
      obs::MetricsRegistry::Global().HasGauge("process/uptime_seconds"));
#endif
}

}  // namespace
}  // namespace skyex
