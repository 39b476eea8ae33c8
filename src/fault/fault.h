#ifndef SKYEX_FAULT_FAULT_H_
#define SKYEX_FAULT_FAULT_H_

// Deterministic, seed-driven fault injection for the online path.
//
// Call sites declare *named injection points* with SKYEX_FAULT_FIRE;
// the registry decides — from a scripted or probabilistic trigger —
// whether the point fires on this hit. Everything is deterministic:
// the probabilistic trigger hashes (seed, hit index) with SplitMix64,
// so a given spec replays the exact same fault schedule on every run,
// regardless of thread interleaving of *other* points.
//
// Arming is spec-driven (the SKYEX_FAULT_SPEC environment variable or
// Registry::ArmSpec), e.g.:
//
//   net.read_err:p=0.05;net.short_read:p=0.1,seed=7;
//       linker.stall:after=50,times=2,ms=800
//
// Per-point triggers (combinable; any satisfied trigger fires):
//   p=F        fire with probability F per hit (seeded, deterministic)
//   after=N    fire from the Nth hit (1-based) onward
//   every=N    fire on every Nth hit
// Modifiers:
//   times=N    stop after N firings (default: unlimited)
//   ms=F       duration parameter (stalls / slow I/O / clock skew)
//   errno=N    errno parameter for error injections
//   seed=N     per-point RNG stream (default: global seed ^ point name)
//
// Unarmed cost is one relaxed atomic load behind an inline check. The
// catalog of points lives in docs/robustness.md.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace skyex::fault {

/// Trigger + parameters of one armed injection point.
struct FaultConfig {
  double probability = 0.0;   // p=  (0 = off)
  uint64_t after = 0;         // after=  (0 = off; 1-based hit index)
  uint64_t every = 0;         // every=  (0 = off)
  uint64_t times = 0;         // times=  (0 = unlimited firings)
  double ms = 0.0;            // ms=  duration parameter
  int error_number = 0;       // errno=  errno parameter
  uint64_t seed = 0;          // seed=  (0 = derive from point name)
};

/// What a firing point should do, filled by Registry::Fire.
struct FaultAction {
  double ms = 0.0;
  int error_number = 0;
};

/// Process-wide registry of armed injection points. Thread-safe: Fire
/// may be called concurrently from any thread; hit/firing counters are
/// atomic and the per-hit decision depends only on (seed, hit index).
class Registry {
 public:
  static Registry& Global();

  /// Arms `point` with `config` (replacing a previous arming).
  void Arm(const std::string& point, const FaultConfig& config);

  /// Parses and arms a full ';'-separated spec. False + `error` on a
  /// malformed spec (nothing is armed in that case).
  bool ArmSpec(const std::string& spec, std::string* error);

  /// Disarms one point (its counters are kept) / every point (counters
  /// reset). A disarmed point is only marked inactive, never freed, so
  /// a thread firing it meanwhile stays safe.
  void Disarm(const std::string& point);
  void DisarmAll();

  /// True when any point is armed (the cheap gate the macro checks).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Records a hit on `point` and decides whether it fires. On firing,
  /// fills `action` (when non-null) with the point's parameters.
  bool Fire(const char* point, FaultAction* action = nullptr);

  /// Lifetime hit / firing counts of a point (0 when never armed).
  uint64_t Hits(const std::string& point) const;
  uint64_t Firings(const std::string& point) const;

  /// Names of all armed points, sorted (diagnostics, /healthz).
  std::vector<std::string> ArmedPoints() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  ~Registry();
  struct Impl;
  Impl* impl_;
  std::atomic<bool> armed_{false};
};

/// Arms the global registry from the SKYEX_FAULT_SPEC environment
/// variable. True when the variable is unset or parsed cleanly; false +
/// `error` on a malformed spec.
bool ArmFromEnv(std::string* error);

}  // namespace skyex::fault

#define SKYEX_FAULT_FIRE(point, action_ptr)                  \
  (::skyex::fault::Registry::Global().armed() &&             \
   ::skyex::fault::Registry::Global().Fire(point, action_ptr))

#endif  // SKYEX_FAULT_FAULT_H_
