#include "obs/metrics.h"

#include "obs/context.h"
#include "obs/json.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace skyex::obs {

namespace {

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t b) { return std::bit_cast<double>(b); }

void AtomicDoubleAdd(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t new_bits = DoubleBits(BitsDouble(old_bits) + delta);
    if (bits->compare_exchange_weak(old_bits, new_bits,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

// JSON-safe number formatting: integers print without exponent, other
// values with enough digits to round-trip.
std::string NumberToJson(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

void Gauge::Set(double v) {
  if (cell_ != nullptr) {
    cell_->bits.store(DoubleBits(v), std::memory_order_relaxed);
  }
}

double Gauge::Value() const {
  return cell_ == nullptr
             ? 0.0
             : BitsDouble(cell_->bits.load(std::memory_order_relaxed));
}

void Histogram::Observe(double value) { Observe(value, 0); }

void Histogram::Observe(double value, uint64_t exemplar_id) {
  if (cell_ == nullptr) return;
  const auto it = std::lower_bound(cell_->bounds.begin(),
                                   cell_->bounds.end(), value);
  const size_t bucket =
      static_cast<size_t>(it - cell_->bounds.begin());  // +inf at the end
  cell_->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(&cell_->sum_bits, value);
  if (exemplar_id != 0) {
    cell_->exemplar_ids[bucket].store(exemplar_id, std::memory_order_relaxed);
    cell_->exemplar_value_bits[bucket].store(DoubleBits(value),
                                             std::memory_order_relaxed);
  }
}

uint64_t Histogram::Count() const {
  return cell_ == nullptr ? 0
                          : cell_->count.load(std::memory_order_relaxed);
}

double Histogram::Sum() const {
  return cell_ == nullptr
             ? 0.0
             : BitsDouble(cell_->sum_bits.load(std::memory_order_relaxed));
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out;
  if (cell_ == nullptr) return out;
  out.reserve(cell_->buckets.size());
  uint64_t running = 0;
  for (const auto& b : cell_->buckets) {
    running += b.load(std::memory_order_relaxed);
    out.push_back(running);
  }
  return out;
}

std::vector<double> Histogram::BucketBounds() const {
  return cell_ == nullptr ? std::vector<double>{} : cell_->bounds;
}

double Histogram::Quantile(double q) const {
  if (cell_ == nullptr) return 0.0;
  const std::vector<uint64_t> cumulative = CumulativeCounts();
  if (cumulative.empty() || cumulative.back() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(cumulative.back());
  size_t bucket = 0;
  while (bucket < cumulative.size() &&
         static_cast<double>(cumulative[bucket]) < rank) {
    ++bucket;
  }
  if (bucket >= cell_->bounds.size()) {
    // +inf bucket: clamp to the largest finite bound.
    return cell_->bounds.empty() ? 0.0 : cell_->bounds.back();
  }
  const double upper = cell_->bounds[bucket];
  const double lower = bucket == 0 ? 0.0 : cell_->bounds[bucket - 1];
  const uint64_t below = bucket == 0 ? 0 : cumulative[bucket - 1];
  const uint64_t inside = cumulative[bucket] - below;
  if (inside == 0) return upper;
  const double fraction =
      (rank - static_cast<double>(below)) / static_cast<double>(inside);
  return lower + std::clamp(fraction, 0.0, 1.0) * (upper - lower);
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double>* buckets = [] {
    auto* v = new std::vector<double>;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
      v->push_back(decade);
      v->push_back(decade * 2.5);
      v->push_back(decade * 5.0);
    }
    v->push_back(1e7);  // 10 s
    return v;
  }();
  return *buckets;
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<internal::CounterCell>> counters;
  std::map<std::string, std::unique_ptr<internal::GaugeCell>> gauges;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: handles cached in function-local statics must
  // outlive every static destructor.
  static MetricsRegistry* global = new MetricsRegistry;
  return *global;
}

Counter MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& cell = impl_->counters[name];
  if (cell == nullptr) cell = std::make_unique<internal::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& cell = impl_->gauges[name];
  if (cell == nullptr) cell = std::make_unique<internal::GaugeCell>();
  return Gauge(cell.get());
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& cell = impl_->histograms[name];
  if (cell == nullptr) {
    cell = std::make_unique<internal::HistogramCell>();
    cell->bounds = bounds;
    cell->buckets =
        std::vector<std::atomic<uint64_t>>(bounds.size() + 1);
    cell->exemplar_ids =
        std::vector<std::atomic<uint64_t>>(bounds.size() + 1);
    cell->exemplar_value_bits =
        std::vector<std::atomic<uint64_t>>(bounds.size() + 1);
  }
  return Histogram(cell.get());
}

bool MetricsRegistry::HasCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters.count(name) > 0;
}

bool MetricsRegistry::HasGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->gauges.count(name) > 0;
}

bool MetricsRegistry::HasHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->histograms.count(name) > 0;
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : impl_->counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json::Escape(name)
        << "\": " << cell->value.load(std::memory_order_relaxed);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, cell] : impl_->gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << json::Escape(name) << "\": "
        << NumberToJson(
               BitsDouble(cell->bits.load(std::memory_order_relaxed)));
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, cell] : impl_->histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << json::Escape(name)
        << "\": {\"count\": " << cell->count.load(std::memory_order_relaxed)
        << ", \"sum\": "
        << NumberToJson(
               BitsDouble(cell->sum_bits.load(std::memory_order_relaxed)))
        << ", \"buckets\": [";
    for (size_t b = 0; b < cell->buckets.size(); ++b) {
      if (b > 0) out << ", ";
      out << "{\"le\": "
          << (b < cell->bounds.size() ? NumberToJson(cell->bounds[b])
                                      : std::string("\"inf\""))
          << ", \"count\": "
          << cell->buckets[b].load(std::memory_order_relaxed) << "}";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
// `subsystem/verb_noun` names map '/' (and anything else illegal) to
// '_' and gain a `skyex_` prefix.
std::string PromName(const std::string& name) {
  std::string out = "skyex_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // Families are rendered to blocks and emitted sorted by Prometheus
  // name across all three kinds, so the exposition is deterministic —
  // byte-identical across scrapes and registration orders (the JSON
  // form gets this for free from its std::map sections).
  std::vector<std::pair<std::string, std::string>> families;
  families.reserve(impl_->counters.size() + impl_->gauges.size() +
                   impl_->histograms.size());
  for (const auto& [name, cell] : impl_->counters) {
    const std::string prom = PromName(name);
    std::ostringstream block;
    block << "# TYPE " << prom << " counter\n"
          << prom << " " << cell->value.load(std::memory_order_relaxed)
          << "\n";
    families.emplace_back(prom, block.str());
  }
  for (const auto& [name, cell] : impl_->gauges) {
    const std::string prom = PromName(name);
    std::ostringstream block;
    block << "# TYPE " << prom << " gauge\n"
          << prom << " "
          << NumberToJson(
                 BitsDouble(cell->bits.load(std::memory_order_relaxed)))
          << "\n";
    families.emplace_back(prom, block.str());
  }
  for (const auto& [name, cell] : impl_->histograms) {
    const std::string prom = PromName(name);
    std::ostringstream block;
    block << "# TYPE " << prom << " histogram\n";
    uint64_t running = 0;
    for (size_t b = 0; b < cell->buckets.size(); ++b) {
      running += cell->buckets[b].load(std::memory_order_relaxed);
      block << prom << "_bucket{le=\""
            << (b < cell->bounds.size() ? NumberToJson(cell->bounds[b])
                                        : std::string("+Inf"))
            << "\"} " << running;
      const uint64_t exemplar_id =
          b < cell->exemplar_ids.size()
              ? cell->exemplar_ids[b].load(std::memory_order_relaxed)
              : 0;
      if (exemplar_id != 0) {
        block << " # {request_id=\"" << FormatRequestId(exemplar_id) << "\"} "
              << NumberToJson(BitsDouble(cell->exemplar_value_bits[b].load(
                     std::memory_order_relaxed)));
      }
      block << "\n";
    }
    block << prom << "_sum "
          << NumberToJson(
                 BitsDouble(cell->sum_bits.load(std::memory_order_relaxed)))
          << "\n"
          << prom << "_count " << cell->count.load(std::memory_order_relaxed)
          << "\n";
    families.emplace_back(prom, block.str());
  }
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [prom, block] : families) out << block;
}

std::string MetricsRegistry::SummaryTable() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::ostringstream out;
  char line[160];
  for (const auto& [name, cell] : impl_->counters) {
    std::snprintf(line, sizeof(line), "%-44s counter %20" PRIu64 "\n",
                  name.c_str(),
                  cell->value.load(std::memory_order_relaxed));
    out << line;
  }
  for (const auto& [name, cell] : impl_->gauges) {
    std::snprintf(line, sizeof(line), "%-44s gauge   %20.6g\n", name.c_str(),
                  BitsDouble(cell->bits.load(std::memory_order_relaxed)));
    out << line;
  }
  for (const auto& [name, cell] : impl_->histograms) {
    const uint64_t count = cell->count.load(std::memory_order_relaxed);
    const double sum =
        BitsDouble(cell->sum_bits.load(std::memory_order_relaxed));
    std::snprintf(line, sizeof(line),
                  "%-44s histo   count=%-12" PRIu64 " sum=%-14.6g mean=%.6g\n",
                  name.c_str(), count, sum,
                  count == 0 ? 0.0 : sum / static_cast<double>(count));
    out << line;
  }
  return out.str();
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, cell] : impl_->counters) cell->value.store(0);
  for (auto& [name, cell] : impl_->gauges) cell->bits.store(0);
  for (auto& [name, cell] : impl_->histograms) {
    for (auto& bucket : cell->buckets) bucket.store(0);
    for (auto& id : cell->exemplar_ids) id.store(0);
    for (auto& bits : cell->exemplar_value_bits) bits.store(0);
    cell->count.store(0);
    cell->sum_bits.store(0);
  }
}

}  // namespace skyex::obs
