#ifndef SKYEX_OBS_METRICS_H_
#define SKYEX_OBS_METRICS_H_

// Process-wide metrics registry: named counters, gauges and fixed-bucket
// latency histograms. Registration takes a lock once per call site (the
// SKYEX_COUNTER_* macros cache the handle in a function-local static);
// after that, hot paths pay a single relaxed atomic operation.
//
// Metric names follow the `subsystem/verb_noun` convention, e.g.
// `skyline/dominance_tests` or `blocking/candidate_pairs` — see
// docs/observability.md.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace skyex::obs {

namespace internal {

struct CounterCell {
  std::atomic<uint64_t> value{0};
};

struct GaugeCell {
  // Stored as bit-cast doubles so set/load need no CAS loop.
  std::atomic<uint64_t> bits{0};
};

struct HistogramCell {
  std::vector<double> bounds;  // upper bucket bounds; +inf bucket implicit
  std::vector<std::atomic<uint64_t>> buckets;  // bounds.size() + 1
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum_bits{0};  // bit-cast double, CAS-accumulated
  // Last request id + observed value to land in each bucket (exemplars
  // for the Prometheus exposition). Written with independent relaxed
  // stores: a reader can pair an id with a value from a neighbouring
  // observation of the same bucket — benign for a debugging pointer.
  std::vector<std::atomic<uint64_t>> exemplar_ids;         // bounds.size() + 1
  std::vector<std::atomic<uint64_t>> exemplar_value_bits;  // bit-cast double
};

}  // namespace internal

/// Cheap copyable handle to a registered counter.
class Counter {
 public:
  Counter() = default;
  void Add(uint64_t n = 1) {
    if (cell_ != nullptr) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::CounterCell* cell) : cell_(cell) {}
  internal::CounterCell* cell_ = nullptr;
};

/// Cheap copyable handle to a registered gauge (last-write-wins double).
class Gauge {
 public:
  Gauge() = default;
  void Set(double v);
  double Value() const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::GaugeCell* cell) : cell_(cell) {}
  internal::GaugeCell* cell_ = nullptr;
};

/// Cheap copyable handle to a fixed-bucket histogram.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double value);
  /// Observe + attach `exemplar_id` (a request id; 0 = none) to the
  /// bucket the value lands in, for Prometheus exemplar exposition.
  void Observe(double value, uint64_t exemplar_id);
  uint64_t Count() const;
  double Sum() const;
  /// Cumulative count of observations <= bounds[i]; the final entry is
  /// the total count (the +inf bucket).
  std::vector<uint64_t> CumulativeCounts() const;
  /// Upper bucket bounds this histogram was registered with (without
  /// the implicit +inf bucket).
  std::vector<double> BucketBounds() const;
  /// Approximate quantile q in [0, 1] by linear interpolation inside
  /// the containing bucket; observations in the +inf bucket clamp to
  /// the largest bound. 0 when empty.
  double Quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}
  internal::HistogramCell* cell_ = nullptr;
};

/// Default histogram bounds for microsecond latencies: 1us .. 10s in a
/// 1-2.5-5 progression.
const std::vector<double>& LatencyBucketsUs();

/// Thread-safe name -> metric registry. `Global()` is a leaked singleton
/// so handles stay valid through static destruction.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The returned handle never dangles.
  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  /// `bounds` must be strictly increasing; it is honored only by the
  /// first registration of `name`.
  Histogram GetHistogram(const std::string& name,
                         const std::vector<double>& bounds);

  /// True iff a metric of that kind was ever registered under `name`.
  bool HasCounter(const std::string& name) const;
  bool HasGauge(const std::string& name) const;
  bool HasHistogram(const std::string& name) const;

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  void WriteJson(std::ostream& out) const;
  /// Prometheus text exposition (text/plain; version=0.0.4): metric
  /// names are prefixed `skyex_` and sanitized ('/' and other
  /// non-[a-zA-Z0-9_:] characters become '_'); histograms emit
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, with
  /// OpenMetrics-style `# {request_id="..."} value` exemplars on
  /// buckets that have one.
  void WritePrometheus(std::ostream& out) const;
  /// Fixed-width human-readable dump, one metric per line.
  std::string SummaryTable() const;

  /// Zeroes every registered metric (testing / repeated experiments).
  void ResetForTest();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  ~MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

}  // namespace skyex::obs

// --- instrumentation macros -------------------------------------------

#define SKYEX_COUNTER_ADD(name, n)                                        \
  do {                                                                    \
    static ::skyex::obs::Counter skyex_obs_counter_ =                     \
        ::skyex::obs::MetricsRegistry::Global().GetCounter(name);         \
    skyex_obs_counter_.Add(n);                                            \
  } while (0)

#define SKYEX_COUNTER_INC(name) SKYEX_COUNTER_ADD(name, 1)

#define SKYEX_GAUGE_SET(name, v)                                          \
  do {                                                                    \
    static ::skyex::obs::Gauge skyex_obs_gauge_ =                         \
        ::skyex::obs::MetricsRegistry::Global().GetGauge(name);           \
    skyex_obs_gauge_.Set(v);                                              \
  } while (0)

#define SKYEX_HISTOGRAM_OBSERVE_US(name, v)                               \
  SKYEX_HISTOGRAM_OBSERVE(name, v, ::skyex::obs::LatencyBucketsUs())

// Observe a microsecond latency and stamp the request id that produced
// it as the bucket's exemplar (0 = no exemplar).
#define SKYEX_HISTOGRAM_OBSERVE_US_EX(name, v, exemplar_id)               \
  do {                                                                    \
    static ::skyex::obs::Histogram skyex_obs_histogram_ =                 \
        ::skyex::obs::MetricsRegistry::Global().GetHistogram(             \
            name, ::skyex::obs::LatencyBucketsUs());                      \
    skyex_obs_histogram_.Observe(v, exemplar_id);                         \
  } while (0)

#define SKYEX_HISTOGRAM_OBSERVE(name, v, bounds)                          \
  do {                                                                    \
    static ::skyex::obs::Histogram skyex_obs_histogram_ =                 \
        ::skyex::obs::MetricsRegistry::Global().GetHistogram(name,        \
                                                             bounds);     \
    skyex_obs_histogram_.Observe(v);                                      \
  } while (0)

#endif  // SKYEX_OBS_METRICS_H_
