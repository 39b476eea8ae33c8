// Tests for the observability layer: metrics registry under contention,
// span collection and nesting, Chrome-trace JSON parse-back, structured
// log filtering and the JSON validator itself.
//
// Most cases use the direct API (ScopedSpan, handles, Logger::Log); the
// SKYEX_* macro sites are asserted in the macro section at the bottom.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace skyex::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTest();
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Reset();
  }
  void TearDown() override {
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Reset();
    Logger::Global().SetCaptureForTest(nullptr);
    Logger::Global().SetLevel(LogLevel::kInfo);
  }
};

// --- metrics ----------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAcrossHandles) {
  Counter a = MetricsRegistry::Global().GetCounter("test/counter");
  Counter b = MetricsRegistry::Global().GetCounter("test/counter");
  a.Add(3);
  b.Add();
  EXPECT_EQ(a.Value(), 4u);
  EXPECT_EQ(b.Value(), 4u);
}

TEST_F(ObsTest, DefaultHandlesAreInertNotCrashy) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  counter.Add(5);
  gauge.Set(1.0);
  histogram.Observe(2.0);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(histogram.Count(), 0u);
}

TEST_F(ObsTest, CounterIsExactUnderEightThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  Counter counter = MetricsRegistry::Global().GetCounter("test/contended");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      // Fresh handle per thread: same underlying cell.
      Counter local =
          MetricsRegistry::Global().GetCounter("test/contended");
      for (uint64_t i = 0; i < kPerThread; ++i) local.Add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(ObsTest, HistogramIsExactUnderEightThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram histogram =
      MetricsRegistry::Global().GetHistogram("test/hist", bounds);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        // Cycle through the buckets: 0.5, 5, 50, 500.
        histogram.Observe(0.5 * std::pow(10.0, i % 4));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(histogram.Count(), total);
  const std::vector<uint64_t> cumulative = histogram.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), bounds.size() + 1);
  EXPECT_EQ(cumulative[0], total / 4);      // <= 1
  EXPECT_EQ(cumulative[1], total / 2);      // <= 10
  EXPECT_EQ(cumulative[2], 3 * total / 4);  // <= 100
  EXPECT_EQ(cumulative[3], total);          // +inf
  // Sum: per cycle of 4 observations 0.5 + 5 + 50 + 500 = 555.5.
  EXPECT_NEAR(histogram.Sum(), 555.5 * static_cast<double>(total / 4),
              1e-6 * static_cast<double>(total));
}

TEST_F(ObsTest, GaugeKeepsLastWrite) {
  Gauge gauge = MetricsRegistry::Global().GetGauge("test/gauge");
  gauge.Set(0.25);
  gauge.Set(-3.5);
  EXPECT_EQ(gauge.Value(), -3.5);
}

TEST_F(ObsTest, MetricsJsonRoundTripsThroughParser) {
  MetricsRegistry::Global().GetCounter("test/json_counter").Add(7);
  MetricsRegistry::Global().GetGauge("test/json_gauge").Set(1.5);
  MetricsRegistry::Global()
      .GetHistogram("test/json_hist", {10.0, 100.0})
      .Observe(42.0);

  std::ostringstream out;
  MetricsRegistry::Global().WriteJson(out);
  std::string error;
  const auto doc = json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const json::Value* counter = doc->Find("counters");
  ASSERT_NE(counter, nullptr);
  const json::Value* value = counter->Find("test/json_counter");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->number_v, 7.0);

  const json::Value* hist = doc->Find("histograms");
  ASSERT_NE(hist, nullptr);
  const json::Value* cell = hist->Find("test/json_hist");
  ASSERT_NE(cell, nullptr);
  ASSERT_NE(cell->Find("count"), nullptr);
  EXPECT_EQ(cell->Find("count")->number_v, 1.0);
  EXPECT_EQ(cell->Find("sum")->number_v, 42.0);
  const json::Value* buckets = cell->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array_v.size(), 3u);  // 10, 100, inf
  EXPECT_EQ(buckets->array_v[0].Find("count")->number_v, 0.0);
  EXPECT_EQ(buckets->array_v[1].Find("count")->number_v, 1.0);
  EXPECT_EQ(buckets->array_v[2].Find("le")->string_v, "inf");
}

TEST_F(ObsTest, ResetForTestZeroesEverything) {
  Counter counter = MetricsRegistry::Global().GetCounter("test/reset");
  counter.Add(9);
  MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_TRUE(MetricsRegistry::Global().HasCounter("test/reset"));
}

// --- spans / tracing --------------------------------------------------

TEST_F(ObsTest, SpansRecordNothingWhileDisabled) {
  { ScopedSpan span("test/disabled_span"); }
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
}

TEST_F(ObsTest, NestedSpansRecordDepthAndContainment) {
  TraceCollector::Global().SetEnabled(true);
  {
    ScopedSpan outer("test/outer");
    {
      ScopedSpan inner("test/inner");
    }
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is start-time sorted, so the outer span comes first.
  EXPECT_STREQ(events[0].name, "test/outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "test/inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(ObsTest, AggregateComputesSelfTime) {
  TraceCollector::Global().SetEnabled(true);
  {
    ScopedSpan outer("test/agg_outer");
    ScopedSpan inner("test/agg_inner");
  }
  const auto stats = TraceCollector::Global().Aggregate();
  ASSERT_TRUE(stats.count("test/agg_outer"));
  ASSERT_TRUE(stats.count("test/agg_inner"));
  const SpanStat& outer = stats.at("test/agg_outer");
  const SpanStat& inner = stats.at("test/agg_inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_GE(outer.total_us, inner.total_us);
  // Outer self time excludes the inner child.
  EXPECT_LE(outer.self_us, outer.total_us - inner.total_us + 1e-6);
  // A leaf's self time is its total.
  EXPECT_DOUBLE_EQ(inner.self_us, inner.total_us);
}

TEST_F(ObsTest, SpansFromWorkerThreadsAreCollected) {
  TraceCollector::Global().SetEnabled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      ScopedSpan span("test/worker_span");
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<TraceEvent> events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : events) {
    EXPECT_STREQ(e.name, "test/worker_span");
    tids.push_back(e.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(ObsTest, ChromeTraceParsesBackWithRequiredFields) {
  TraceCollector::Global().SetEnabled(true);
  {
    ScopedSpan outer("test/export_outer");
    ScopedSpan inner("test/export_inner");
  }
  std::ostringstream out;
  TraceCollector::Global().WriteChromeTrace(out);

  std::string error;
  const auto doc = json::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_v.size(), 2u);
  for (const json::Value& e : events->array_v) {
    ASSERT_NE(e.Find("name"), nullptr);
    EXPECT_EQ(e.Find("ph")->string_v, "X");
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
    EXPECT_TRUE(e.Find("pid")->is_number());
    EXPECT_TRUE(e.Find("tid")->is_number());
  }
  const std::vector<std::string> names = {
      events->array_v[0].Find("name")->string_v,
      events->array_v[1].Find("name")->string_v};
  EXPECT_NE(std::find(names.begin(), names.end(), "test/export_outer"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test/export_inner"),
            names.end());
}

TEST_F(ObsTest, StopwatchMeasuresForward) {
  const Stopwatch watch;
  double last = -1.0;
  for (int i = 0; i < 3; ++i) {
    const double now = watch.ElapsedMicros();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

// --- logging ----------------------------------------------------------

TEST_F(ObsTest, LogFormatsKeyValues) {
  std::string captured;
  Logger::Global().SetCaptureForTest(&captured);
  Logger::Global().SetLevel(LogLevel::kDebug);
  Logger::Global().Log(LogLevel::kInfo, "test/event", "hello world",
                       {{"n", 42}, {"ratio", 0.5}, {"who", "a b"},
                        {"ok", true}});
  EXPECT_EQ(captured,
            "level=info event=test/event msg=\"hello world\" n=42 "
            "ratio=0.5 who=\"a b\" ok=true\n");
}

TEST_F(ObsTest, RuntimeLevelGatesThroughEnabled) {
  Logger::Global().SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(Logger::Global().Enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::Global().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Global().Enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::Global().Enabled(LogLevel::kError));
}

TEST_F(ObsTest, ParseLogLevelAcceptsAliases) {
  LogLevel level;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
}

TEST_F(ObsTest, LogEscapesQuotesAndNewlines) {
  std::string captured;
  Logger::Global().SetCaptureForTest(&captured);
  Logger::Global().Log(LogLevel::kWarn, "test/escape",
                       "say \"hi\"\nplease", {});
  EXPECT_NE(captured.find("msg=\"say \\\"hi\\\"\\nplease\""),
            std::string::npos);
}

// --- trace context ----------------------------------------------------

TEST_F(ObsTest, CurrentContextStartsInvalid) {
  EXPECT_FALSE(CurrentContext().valid());
  EXPECT_EQ(CurrentContext().request_id, 0u);
}

TEST_F(ObsTest, ScopedContextInstallsAndRestores) {
  {
    ScopedTraceContext scope(TraceContext{42, 7});
    EXPECT_TRUE(CurrentContext().valid());
    EXPECT_EQ(CurrentContext().request_id, 42u);
    EXPECT_EQ(CurrentContext().span_id, 7u);
    {
      ScopedTraceContext nested(TraceContext{99, 0});
      EXPECT_EQ(CurrentContext().request_id, 99u);
    }
    // The nested scope restores the outer context, not "no context".
    EXPECT_EQ(CurrentContext().request_id, 42u);
  }
  EXPECT_FALSE(CurrentContext().valid());
}

TEST_F(ObsTest, ContextIsThreadLocal) {
  ScopedTraceContext scope(TraceContext{42, 0});
  uint64_t seen_on_thread = 1;  // sentinel: 0 is what we expect
  std::thread worker([&seen_on_thread] {
    seen_on_thread = CurrentContext().request_id;
  });
  worker.join();
  EXPECT_EQ(seen_on_thread, 0u);
  EXPECT_EQ(CurrentContext().request_id, 42u);
}

TEST_F(ObsTest, NewRequestIdsAreNonZeroAndDistinct) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(NewRequestId());
  for (const uint64_t id : ids) EXPECT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST_F(ObsTest, RequestIdFormatsAndParsesRoundTrip) {
  const uint64_t id = 0x0123456789abcdefull;
  const std::string text = FormatRequestId(id);
  EXPECT_EQ(text, "0123456789abcdef");
  uint64_t parsed = 0;
  ASSERT_TRUE(ParseRequestId(text, &parsed));
  EXPECT_EQ(parsed, id);
  // Short hex parses too (leading zeros implied).
  ASSERT_TRUE(ParseRequestId("ff", &parsed));
  EXPECT_EQ(parsed, 0xffu);
}

TEST_F(ObsTest, ParseRequestIdRejectsNonHex) {
  uint64_t parsed = 0;
  EXPECT_FALSE(ParseRequestId("", &parsed));
  EXPECT_FALSE(ParseRequestId("not-hex!", &parsed));
  EXPECT_FALSE(ParseRequestId("0123456789abcdef0", &parsed));  // 17 digits
  EXPECT_FALSE(ParseRequestId("12 34", &parsed));
}

TEST_F(ObsTest, RequestIdFromTextAdoptsHexAndHashesTheRest) {
  // A well-formed hex id is adopted verbatim...
  EXPECT_EQ(RequestIdFromText("00000000000000ff"), 0xffu);
  // ...anything else hashes: deterministic, non-zero, spread out.
  const uint64_t a = RequestIdFromText("client-req-1");
  const uint64_t b = RequestIdFromText("client-req-2");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, RequestIdFromText("client-req-1"));
  // The empty string still maps to a usable id.
  EXPECT_NE(RequestIdFromText(""), 0u);
}

TEST_F(ObsTest, LogLinesCarryTheCurrentRequestId) {
  std::string captured;
  Logger::Global().SetCaptureForTest(&captured);
  {
    ScopedTraceContext scope(TraceContext{0xabcu, 0});
    Logger::Global().Log(LogLevel::kInfo, "test/rid", "in context", {});
  }
  Logger::Global().Log(LogLevel::kInfo, "test/rid", "out of context", {});
  const std::string rid = " rid=" + FormatRequestId(0xabcu);
  const size_t first_newline = captured.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  const std::string first_line = captured.substr(0, first_newline);
  const std::string rest = captured.substr(first_newline + 1);
  EXPECT_NE(first_line.find(rid), std::string::npos) << first_line;
  EXPECT_EQ(rest.find(" rid="), std::string::npos) << rest;
}

// --- concurrent snapshot / reset (the /debug/trace contract) ----------

TEST_F(ObsTest, SnapshotAndResetAreSafeWhileSpansRecord) {
  // The /debug/trace endpoint snapshots and the obs teardown resets
  // while I/O workers and the linker still record spans. Hammer that
  // interleaving: correctness here is "no crash, no torn event" — every
  // snapshotted event must be one of ours, fully formed. The writers
  // record a bounded number of spans (free-running writers outproduce
  // the snapshots and balloon the collector's buffers).
  TraceCollector::Global().SetEnabled(true);
  constexpr int kSpansPerThread = 20000;
  std::atomic<int> live{4};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&live] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan outer("test/hammer_outer");
        ScopedSpan inner("test/hammer_inner");
      }
      live.fetch_sub(1);
    });
  }
  int rounds = 0;
  while (live.load() > 0 || rounds < 3) {
    const std::vector<TraceEvent> events =
        TraceCollector::Global().Snapshot();
    for (const TraceEvent& e : events) {
      const std::string name = e.name;
      EXPECT_TRUE(name == "test/hammer_outer" ||
                  name == "test/hammer_inner")
          << name;
      EXPECT_GE(e.dur_us, 0.0);
    }
    if (++rounds % 3 == 0) TraceCollector::Global().Reset();
  }
  for (std::thread& w : recorders) w.join();
}

// --- Prometheus exposition --------------------------------------------

// Validates one line of Prometheus text format: either a "# TYPE"
// comment or "<name>[{labels}] <number>[ # {labels} <number>]" (the
// trailing part is an OpenMetrics-style exemplar).
bool ValidPrometheusLine(const std::string& line, std::string* why) {
  if (line.rfind("# TYPE ", 0) == 0) {
    std::istringstream in(line.substr(7));
    std::string name, type;
    in >> name >> type;
    if (name.empty() ||
        (type != "counter" && type != "gauge" && type != "histogram")) {
      *why = "bad TYPE line";
      return false;
    }
    return true;
  }
  size_t i = 0;
  auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == ':';
  };
  while (i < line.size() && name_char(line[i])) ++i;
  if (i == 0) {
    *why = "no metric name";
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    const size_t close = line.find('}', i);
    if (close == std::string::npos) {
      *why = "unclosed label set";
      return false;
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    *why = "no space before value";
    return false;
  }
  ++i;
  const size_t value_end = line.find(' ', i);
  const std::string value = line.substr(i, value_end - i);
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    *why = "unparseable value '" + value + "'";
    return false;
  }
  if (value_end != std::string::npos) {
    // Exemplar: " # {request_id=\"...\"} <number>".
    if (line.compare(value_end, 4, " # {") != 0 ||
        line.find('}', value_end) == std::string::npos) {
      *why = "trailing garbage that is not an exemplar";
      return false;
    }
  }
  return true;
}

TEST_F(ObsTest, PrometheusExpositionIsWellFormed) {
  MetricsRegistry::Global().GetCounter("serve/http_requests").Add(12);
  MetricsRegistry::Global().GetGauge("par/pool_threads").Set(8.0);
  Histogram histogram = MetricsRegistry::Global().GetHistogram(
      "serve/request_latency_us", {100.0, 1000.0});
  histogram.Observe(50.0);
  histogram.Observe(500.0, 0xfeedu);  // with an exemplar id
  histogram.Observe(5000.0);

  std::ostringstream out;
  MetricsRegistry::Global().WritePrometheus(out);
  const std::string text = out.str();

  // Every line must be valid Prometheus text format.
  std::istringstream lines(text);
  std::string line, why;
  size_t count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ValidPrometheusLine(line, &why)) << why << ": " << line;
    ++count;
  }
  EXPECT_GE(count, 8u);

  // Names are prefixed and sanitized ('/' -> '_'), values correct.
  EXPECT_NE(text.find("# TYPE skyex_serve_http_requests counter\n"
                      "skyex_serve_http_requests 12\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE skyex_par_pool_threads gauge\n"
                      "skyex_par_pool_threads 8\n"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("skyex_serve_request_latency_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("skyex_serve_request_latency_us_bucket{le=\"1000\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("skyex_serve_request_latency_us_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("skyex_serve_request_latency_us_sum 5550\n"),
            std::string::npos);
  EXPECT_NE(text.find("skyex_serve_request_latency_us_count 3\n"),
            std::string::npos);
  // The exemplar links the le="1000" bucket to the request id.
  EXPECT_NE(text.find("_bucket{le=\"1000\"} 2 # {request_id=\"" +
                      FormatRequestId(0xfeedu) + "\"} 500"),
            std::string::npos)
      << text;
}

TEST_F(ObsTest, PrometheusOrderIsDeterministicAndSorted) {
  // Register in deliberately non-alphabetical order, mixing kinds.
  MetricsRegistry::Global().GetGauge("zz/late_gauge").Set(1.0);
  MetricsRegistry::Global().GetCounter("mm/mid_counter").Add(2);
  MetricsRegistry::Global().GetHistogram("aa/early_hist", {10.0}).Observe(1.0);
  MetricsRegistry::Global().GetCounter("aa/early_counter").Add(1);

  std::ostringstream first, second;
  MetricsRegistry::Global().WritePrometheus(first);
  MetricsRegistry::Global().WritePrometheus(second);
  // Scrape-to-scrape the exposition is byte-identical...
  EXPECT_EQ(first.str(), second.str());

  // ...and family headers appear in sorted name order regardless of
  // registration order or metric kind.
  const std::string text = first.str();
  std::vector<size_t> positions = {
      text.find("# TYPE skyex_aa_early_counter counter"),
      text.find("# TYPE skyex_aa_early_hist histogram"),
      text.find("# TYPE skyex_mm_mid_counter counter"),
      text.find("# TYPE skyex_zz_late_gauge gauge"),
  };
  for (size_t i = 0; i < positions.size(); ++i) {
    ASSERT_NE(positions[i], std::string::npos) << i << ":\n" << text;
    if (i > 0) EXPECT_LT(positions[i - 1], positions[i]) << text;
  }
}

TEST_F(ObsTest, PrometheusExemplarTracksLatestObservation) {
  Histogram histogram = MetricsRegistry::Global().GetHistogram(
      "test/exemplar_hist", {10.0});
  histogram.Observe(5.0, 0xaaaau);
  histogram.Observe(7.0, 0xbbbbu);
  std::ostringstream out;
  MetricsRegistry::Global().WritePrometheus(out);
  const std::string text = out.str();
  // Last writer wins; the stale exemplar id is gone.
  EXPECT_NE(text.find("request_id=\"" + FormatRequestId(0xbbbbu) + "\""),
            std::string::npos);
  EXPECT_EQ(text.find(FormatRequestId(0xaaaau)), std::string::npos);
}

// --- macro sites ------------------------------------------------------

TEST_F(ObsTest, CounterMacroRegistersAndCaches) {
  for (int i = 0; i < 3; ++i) SKYEX_COUNTER_ADD("test/macro_counter", 2);
  ASSERT_TRUE(MetricsRegistry::Global().HasCounter("test/macro_counter"));
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test/macro_counter").Value(),
      6u);
}

TEST_F(ObsTest, SpanMacroRecordsWhenEnabled) {
  TraceCollector::Global().SetEnabled(true);
  {
    SKYEX_SPAN("test/macro_span");
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/macro_span");
}

TEST_F(ObsTest, LogMacroFiltersByRuntimeLevel) {
  std::string captured;
  Logger::Global().SetCaptureForTest(&captured);
  Logger::Global().SetLevel(LogLevel::kWarn);
  SKYEX_LOG_DEBUG("test/event", "dropped");
  SKYEX_LOG_INFO("test/event", "dropped too");
  SKYEX_LOG_WARN("test/event", "kept", {"n", 1});
  SKYEX_LOG_ERROR("test/event", "kept too");
  EXPECT_EQ(captured.find("dropped"), std::string::npos);
  EXPECT_NE(captured.find("level=warn"), std::string::npos);
  EXPECT_NE(captured.find("level=error"), std::string::npos);
}

// --- JSON parser ------------------------------------------------------

TEST_F(ObsTest, JsonParserHandlesScalarsAndStructure) {
  std::string error;
  const auto doc = json::Parse(
      R"({"a": [1, -2.5e2, true, null], "b": {"c": "x\ty"}})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const json::Value* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_v.size(), 4u);
  EXPECT_EQ(a->array_v[0].number_v, 1.0);
  EXPECT_EQ(a->array_v[1].number_v, -250.0);
  EXPECT_TRUE(a->array_v[2].bool_v);
  EXPECT_EQ(a->array_v[3].type, json::Value::Type::kNull);
  const json::Value* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->Find("c")->string_v, "x\ty");
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::Parse("{", &error).has_value());
  EXPECT_FALSE(json::Parse("{\"a\": }", &error).has_value());
  EXPECT_FALSE(json::Parse("[1, 2,]", &error).has_value());
  EXPECT_FALSE(json::Parse("{} trailing", &error).has_value());
  EXPECT_FALSE(json::Parse("\"unterminated", &error).has_value());
}

}  // namespace
}  // namespace skyex::obs
