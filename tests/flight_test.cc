// Tests for the tail-latency flight recorder: ring wraparound, top-K
// retention, marker events, JSON parse-back, and concurrent recording.

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/json.h"

namespace skyex::obs {
namespace {

RequestTimeline MakeTimeline(uint64_t request_id, double total_us) {
  RequestTimeline timeline;
  timeline.request_id = request_id;
  timeline.SetEndpoint("/v1/link");
  timeline.status = 200;
  timeline.total_us = total_us;
  return timeline;
}

TEST(FlightTest, RecentIsMostRecentFirst) {
  FlightRecorder recorder(8, 4);
  for (uint64_t i = 1; i <= 3; ++i) {
    recorder.Record(MakeTimeline(i, static_cast<double>(i)));
  }
  const std::vector<RequestTimeline> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].request_id, 3u);
  EXPECT_EQ(recent[1].request_id, 2u);
  EXPECT_EQ(recent[2].request_id, 1u);
}

TEST(FlightTest, RingWrapsKeepingTheNewest) {
  FlightRecorder recorder(8, 4);
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(MakeTimeline(i, static_cast<double>(i)));
  }
  const std::vector<RequestTimeline> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 8u);
  // The ring holds exactly the last 8 records, newest first.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].request_id, 20u - i);
  }
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightTest, SlowestRetainsTopKAcrossWraps) {
  FlightRecorder recorder(4, 3);
  // Slow requests early, then a long tail of fast ones that evicts
  // them from the recent ring — but not from the slowest set.
  recorder.Record(MakeTimeline(101, 5000.0));
  recorder.Record(MakeTimeline(102, 9000.0));
  recorder.Record(MakeTimeline(103, 7000.0));
  for (uint64_t i = 1; i <= 40; ++i) {
    recorder.Record(MakeTimeline(i, 10.0 + static_cast<double>(i)));
  }
  const std::vector<RequestTimeline> slowest = recorder.Slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].request_id, 102u);
  EXPECT_EQ(slowest[1].request_id, 103u);
  EXPECT_EQ(slowest[2].request_id, 101u);
  // And the slow ids are indeed gone from the recent ring.
  for (const RequestTimeline& t : recorder.Recent()) {
    EXPECT_LT(t.request_id, 100u);
  }
}

TEST(FlightTest, SlowestIsSortedDescending) {
  FlightRecorder recorder(16, 5);
  const double totals[] = {300.0, 100.0, 900.0, 500.0, 700.0,
                           200.0, 800.0, 400.0};
  uint64_t id = 0;
  for (const double total : totals) {
    recorder.Record(MakeTimeline(++id, total));
  }
  const std::vector<RequestTimeline> slowest = recorder.Slowest();
  ASSERT_EQ(slowest.size(), 5u);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].total_us, slowest[i].total_us);
  }
  EXPECT_EQ(slowest[0].total_us, 900.0);
  EXPECT_EQ(slowest[4].total_us, 400.0);
}

TEST(FlightTest, EndpointTruncatesLongPaths) {
  RequestTimeline timeline;
  timeline.SetEndpoint(
      "/a/very/long/path/that/exceeds/the/endpoint/field");
  // Always NUL-terminated, never overflows the fixed field.
  EXPECT_LT(std::string(timeline.endpoint).size(),
            sizeof(timeline.endpoint));
  EXPECT_EQ(std::string(timeline.endpoint).rfind("/a/very", 0), 0u);
}

TEST(FlightTest, EventsKeepKindAndDetailOldestFirst) {
  FlightRecorder recorder(8, 4);
  recorder.RecordEvent("watchdog_trip", "heartbeat_age_ms=812");
  recorder.RecordEvent("breaker_open", "opens=1");
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "watchdog_trip");
  EXPECT_STREQ(events[0].detail, "heartbeat_age_ms=812");
  EXPECT_STREQ(events[1].kind, "breaker_open");
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
}

TEST(FlightTest, WriteJsonParsesBackWithAllSections) {
  FlightRecorder recorder(8, 4);
  RequestTimeline timeline = MakeTimeline(0xabcdef12u, 1234.5);
  timeline.parse_us = 10.0;
  timeline.queue_wait_us = 20.0;
  timeline.batch_wait_us = 30.0;
  timeline.link.extract_us = 400.0;
  timeline.link.rank_us = 600.0;
  timeline.serialize_us = 50.0;
  timeline.batch_size = 3;
  timeline.degraded = true;
  recorder.Record(timeline);
  recorder.RecordEvent("watchdog_trip", "queue_depth=9");

  std::ostringstream out;
  recorder.WriteJson(out);
  std::string error;
  const auto doc = json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const json::Value* recent = doc->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->array_v.size(), 1u);
  const json::Value& entry = recent->array_v[0];
  // Request ids are serialized as the 16-hex string clients see in the
  // X-Request-Id header — a double would corrupt large ids.
  ASSERT_NE(entry.Find("request_id"), nullptr);
  EXPECT_EQ(entry.Find("request_id")->string_v,
            FormatRequestId(0xabcdef12u));
  EXPECT_EQ(entry.Find("endpoint")->string_v, "/v1/link");
  EXPECT_EQ(entry.Find("status")->number_v, 200.0);
  EXPECT_EQ(entry.Find("batch_size")->number_v, 3.0);
  EXPECT_TRUE(entry.Find("degraded")->bool_v);
  EXPECT_NEAR(entry.Find("queue_wait_us")->number_v, 20.0, 1e-9);
  EXPECT_NEAR(entry.Find("extract_us")->number_v, 400.0, 1e-9);
  EXPECT_NEAR(entry.Find("rank_us")->number_v, 600.0, 1e-9);
  EXPECT_NEAR(entry.Find("total_us")->number_v, 1234.5, 1e-9);

  const json::Value* slowest = doc->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  EXPECT_EQ(slowest->array_v.size(), 1u);

  const json::Value* events = doc->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array_v.size(), 1u);
  EXPECT_EQ(events->array_v[0].Find("kind")->string_v, "watchdog_trip");
  EXPECT_EQ(events->array_v[0].Find("detail")->string_v, "queue_depth=9");

  ASSERT_NE(doc->Find("dropped"), nullptr);
  EXPECT_EQ(doc->Find("dropped")->number_v, 0.0);
}

TEST(FlightTest, ConcurrentRecordingLosesNothingOnALargeRing) {
  // Ring far larger than the record count: no wrap, so no legal drops,
  // and every thread's records must surface exactly once.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200;
  FlightRecorder recorder(4096, 8);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        recorder.Record(MakeTimeline(id, static_cast<double>(id)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<RequestTimeline> recent = recorder.Recent();
  EXPECT_EQ(recent.size(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::set<uint64_t> ids;
  for (const RequestTimeline& t : recent) ids.insert(t.request_id);
  EXPECT_EQ(ids.size(), kThreads * kPerThread);
  // The slowest set holds the true global top 8.
  const std::vector<RequestTimeline> slowest = recorder.Slowest();
  ASSERT_EQ(slowest.size(), 8u);
  for (size_t i = 0; i < slowest.size(); ++i) {
    EXPECT_EQ(slowest[i].request_id, kThreads * kPerThread - i);
  }
}

TEST(FlightTest, ConcurrentReadersWhileWritersAreLive) {
  // Readers must be safe mid-storm: a small ring wraps constantly while
  // Recent/Slowest/WriteJson run. Nothing to assert beyond "no crash,
  // well-formed output" — torn timelines are prevented by the slot
  // locks, drops are allowed and counted.
  FlightRecorder recorder(8, 4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.Record(MakeTimeline(
            static_cast<uint64_t>(t) * 1000000 + ++i,
            static_cast<double>(i % 977)));
        if ((i & 63) == 0) recorder.RecordEvent("tick", "concurrent");
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::vector<RequestTimeline> recent = recorder.Recent();
    EXPECT_LE(recent.size(), 8u);
    for (const RequestTimeline& t : recent) {
      EXPECT_NE(t.request_id, 0u);  // never a torn/empty slot
    }
    std::ostringstream out;
    recorder.WriteJson(out);
    std::string error;
    EXPECT_TRUE(json::Parse(out.str(), &error).has_value()) << error;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(FlightTest, ResetForTestClearsEverything) {
  FlightRecorder recorder(8, 4);
  recorder.Record(MakeTimeline(1, 100.0));
  recorder.RecordEvent("breaker_open", "opens=2");
  recorder.ResetForTest();
  EXPECT_TRUE(recorder.Recent().empty());
  EXPECT_TRUE(recorder.Slowest().empty());
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightTest, GlobalIsASingleton) {
  EXPECT_EQ(&FlightRecorder::Global(), &FlightRecorder::Global());
}

}  // namespace
}  // namespace skyex::obs
