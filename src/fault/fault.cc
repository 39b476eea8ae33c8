#include "fault/fault.h"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "obs/log.h"
#include "obs/metrics.h"
#include "par/rng.h"

namespace skyex::fault {

namespace {

/// FNV-1a — stable point-name hash for deriving default seeds.
uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  if (text[0] == '-') return false;  // strtoull silently negates
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace

struct Registry::Impl {
  struct Point {
    FaultConfig config;
    uint64_t seed = 0;  // resolved (config.seed or name-derived)
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> firings{0};
    bool active = true;  // false after Disarm (counters kept)
  };

  mutable std::mutex mutex;
  // unique_ptr: Point addresses stay stable across map growth, and a
  // point is never freed (disarming only marks it inactive), so Fire
  // can bump counters outside the lock while another thread disarms.
  std::map<std::string, std::unique_ptr<Point>> points;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::Global() {
  static Registry* registry = new Registry;  // leaked: outlives statics
  return *registry;
}

void Registry::Arm(const std::string& point, const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->points[point];
  if (slot == nullptr) slot = std::make_unique<Impl::Point>();
  slot->config = config;
  slot->seed = config.seed != 0 ? config.seed : HashName(point);
  slot->hits.store(0, std::memory_order_relaxed);
  slot->firings.store(0, std::memory_order_relaxed);
  slot->active = true;
  armed_.store(true, std::memory_order_relaxed);
  SKYEX_LOG_INFO("fault/arm", "injection point armed", {"point", point},
                 {"p", config.probability}, {"after", config.after},
                 {"every", config.every}, {"times", config.times},
                 {"ms", config.ms});
}

bool Registry::ArmSpec(const std::string& spec, std::string* error) {
  // Parse everything before arming anything.
  std::vector<std::pair<std::string, FaultConfig>> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    const std::string point = entry.substr(0, colon);
    if (point.empty()) {
      if (error != nullptr) *error = "empty point name in '" + entry + "'";
      return false;
    }
    FaultConfig config;
    std::string args =
        colon == std::string::npos ? "" : entry.substr(colon + 1);
    size_t apos = 0;
    while (apos < args.size()) {
      size_t aend = args.find(',', apos);
      if (aend == std::string::npos) aend = args.size();
      const std::string arg = args.substr(apos, aend - apos);
      apos = aend + 1;
      if (arg.empty()) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = "argument '" + arg + "' of '" + point + "' needs =";
        }
        return false;
      }
      const std::string key = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      bool ok;
      if (key == "p") {
        ok = ParseDouble(value, &config.probability) &&
             config.probability >= 0.0 && config.probability <= 1.0;
      } else if (key == "after") {
        ok = ParseUint(value, &config.after);
      } else if (key == "every") {
        ok = ParseUint(value, &config.every);
      } else if (key == "times") {
        ok = ParseUint(value, &config.times);
      } else if (key == "ms") {
        ok = ParseDouble(value, &config.ms) && config.ms >= 0.0;
      } else if (key == "errno") {
        uint64_t v = 0;
        ok = ParseUint(value, &v);
        config.error_number = static_cast<int>(v);
      } else if (key == "seed") {
        ok = ParseUint(value, &config.seed);
      } else {
        if (error != nullptr) {
          *error = "unknown argument '" + key + "' of '" + point + "'";
        }
        return false;
      }
      if (!ok) {
        if (error != nullptr) {
          *error = "bad value '" + value + "' for '" + key + "' of '" +
                   point + "'";
        }
        return false;
      }
    }
    if (config.probability == 0.0 && config.after == 0 &&
        config.every == 0) {
      if (error != nullptr) {
        *error = "point '" + point + "' has no trigger (p/after/every)";
      }
      return false;
    }
    parsed.emplace_back(point, config);
  }
  for (const auto& [point, config] : parsed) Arm(point, config);
  return true;
}

void Registry::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->points.find(point);
  if (it != impl_->points.end()) it->second->active = false;
  bool any = false;
  for (const auto& [name, p] : impl_->points) any = any || p->active;
  armed_.store(any, std::memory_order_relaxed);
}

void Registry::DisarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& [name, p] : impl_->points) {
    p->active = false;
    p->hits.store(0, std::memory_order_relaxed);
    p->firings.store(0, std::memory_order_relaxed);
  }
  armed_.store(false, std::memory_order_relaxed);
}

bool Registry::Fire(const char* point, FaultAction* action) {
  // The config and seed are copied under the lock: Arm rewrites them in
  // place, and may do so while this thread decides.
  Impl::Point* p = nullptr;
  FaultConfig config;
  uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->points.find(point);
    if (it == impl_->points.end() || !it->second->active) return false;
    p = it->second.get();
    config = p->config;
    seed = p->seed;
  }
  const uint64_t hit = p->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool triggered = false;
  if (config.every > 0 && hit % config.every == 0) triggered = true;
  if (config.after > 0 && hit >= config.after) triggered = true;
  if (!triggered && config.probability > 0.0) {
    // Counter-based: decision depends only on (seed, hit), so a spec
    // replays identically however threads interleave other points.
    const uint64_t r = par::SplitMix64(seed ^ hit);
    const double unit =
        static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
    triggered = unit < config.probability;
  }
  if (!triggered) return false;
  if (config.times > 0) {
    // Reserve a firing slot; losers of the race past the cap back off.
    const uint64_t n =
        p->firings.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > config.times) {
      p->firings.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
  } else {
    p->firings.fetch_add(1, std::memory_order_relaxed);
  }
  if (action != nullptr) {
    action->ms = config.ms;
    action->error_number = config.error_number;
  }
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("fault/fired/") + point)
      .Add(1);
  return true;
}

uint64_t Registry::Hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->points.find(point);
  return it == impl_->points.end()
             ? 0
             : it->second->hits.load(std::memory_order_relaxed);
}

uint64_t Registry::Firings(const std::string& point) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->points.find(point);
  return it == impl_->points.end()
             ? 0
             : it->second->firings.load(std::memory_order_relaxed);
}

std::vector<std::string> Registry::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  for (const auto& [name, p] : impl_->points) {
    if (p->active) out.push_back(name);
  }
  return out;
}

bool ArmFromEnv(std::string* error) {
  const char* spec = std::getenv("SKYEX_FAULT_SPEC");
  if (spec == nullptr || spec[0] == '\0') return true;
  return Registry::Global().ArmSpec(spec, error);
}

}  // namespace skyex::fault
