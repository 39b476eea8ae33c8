#ifndef SKYEX_PROF_PROF_H_
#define SKYEX_PROF_PROF_H_

// Always-on sampling CPU profiler with phase-tagged stacks.
//
// Each registered thread owns a POSIX per-thread CPU-time timer
// (timer_create with the thread's CPU clock + SIGEV_THREAD_ID), so a
// thread is sampled only while it actually burns CPU — idle I/O
// workers cost nothing. The SIGPROF handler captures a backtrace()
// frame array plus the thread's current *phase* tag and request id
// into a fixed-capacity per-thread sample ring, which a thread gets only
// once sampling starts for it (registration alone allocates none);
// symbolization (dladdr, then the executable's own symbol table for
// local functions, + demangling) happens lazily at dump time, never in
// the handler.
//
// Phases name the pipeline stage a thread is executing — blocking,
// extraction, skyline, ranking, serve, training — installed by the
// RAII PhaseScope (macro SKYEX_PROF_PHASE), or together with the trace
// span and the phase's timing by PhaseSpan (macro SKYEX_PHASE).
// ThreadPool::TaskGroup captures the submitter's phase into pool tasks
// the same way it captures the obs::TraceContext, so a ParallelFor
// body under the linker keeps its request id *and* its phase at any
// thread count. One profile therefore answers "which function, in
// which phase, for which request".
//
// Async-signal-safety contract (the part that keeps this always-on
// safe in production):
//   - the handler touches only its thread's ring (per-slot seqlock
//     tickets, no locks, no allocation) and lock-free atomics;
//   - backtrace() is primed once in Start() from normal context, so
//     the lazy libgcc load never happens inside a handler;
//   - symbolization (dladdr, the symbol-table read, __cxa_demangle,
//     std::string) is confined to Collapse*/Write* callers on normal
//     threads.
//
// Snapshot/drain concurrency contract (mirrors obs/trace.h): Drain()
// consumes each ring's unread samples while handlers keep writing —
// a slot being rewritten during the copy fails its seqlock ticket
// check and is skipped (counted as dropped), never torn. No
// quiescence is required; /debug/pprof/profile collects while the
// linker and pool are live. Start/Stop are serialized internally;
// stopping leaves the SIGPROF handler installed but inert.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace skyex::prof {

// Pipeline stage a sample or allocation is attributed to. Kept small
// and fixed: the signal handler and the allocation hooks index plain
// atomic arrays by it.
enum class Phase : uint8_t {
  kUntagged = 0,
  kServe,       // HTTP parse/dispatch/serialize, linker glue
  kBlocking,    // candidate generation (QuadFlex / incremental scan)
  kExtraction,  // LGM-X feature extraction
  kSkyline,     // skyline peel / layering
  kRanking,     // scoring + acceptance / top-k
  kTraining,    // model fitting
  kShard,       // shard-node link work (scatter-gather serving)
  kPrefilter,   // sketch pre-filter ahead of extraction
};
inline constexpr size_t kPhaseCount = 9;

/// Stable lowercase name ("untagged", "serve", ...).
const char* PhaseName(Phase phase);

/// One captured stack sample (raw program counters, leaf first).
struct Sample {
  static constexpr size_t kMaxFrames = 48;
  uint64_t request_id = 0;
  uint32_t depth = 0;
  Phase phase = Phase::kUntagged;
  void* frames[kMaxFrames];
};

/// Fixed-capacity single-writer ring of samples with per-slot seqlock
/// tickets. The writer is the owning thread's signal handler; one
/// concurrent reader (Drain) may consume from any thread. Both sides
/// touch a slot's payload only through relaxed atomic accesses, so a
/// copy racing a rewrite is a discarded read, not a data race. Capacity
/// is rounded up to a power of two.
class SampleRing {
 public:
  explicit SampleRing(size_t capacity = 4096);

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  /// Writer side, async-signal-safe: copies `sample` (its first
  /// `depth` frames) into the next slot and publishes it. Never blocks;
  /// overwrites the oldest unread sample when the ring is full.
  void Write(const Sample& sample);

  /// Reader side: appends every unread, fully-committed sample to
  /// `out` (oldest first) and advances the read cursor. Samples
  /// overwritten before they were read, or rewritten mid-copy, count
  /// as dropped; returns how many this call found. Single reader at a
  /// time (the profiler serializes).
  uint64_t Drain(std::vector<Sample>* out);

  size_t capacity() const { return slots_.size(); }
  uint64_t total() const { return writes_.load(std::memory_order_relaxed); }
  /// Lifetime drops: the sum of every Drain's return value.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    // 0 = empty/being written; w+1 = committed by write number w.
    std::atomic<uint64_t> ticket{0};
    Sample sample;  // accessed only through std::atomic_ref
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> writes_{0};  // committed writes
  std::atomic<uint64_t> read_{0};    // consumed writes (reader-owned)
  std::atomic<uint64_t> dropped_{0};
};

/// Aggregated profile over one collection window: identical
/// (phase, stack) samples folded together, plus per-phase totals.
struct Profile {
  struct Entry {
    Phase phase = Phase::kUntagged;
    std::vector<void*> frames;  // leaf first, as captured
    uint64_t count = 0;
    uint64_t last_request_id = 0;  // a request the stack was seen under
  };
  std::vector<Entry> entries;           // sorted by count, descending
  std::array<uint64_t, kPhaseCount> phase_samples{};
  uint64_t samples = 0;
  // Samples this window lost: overwritten before this Drain read them,
  // or rewritten while it copied them.
  uint64_t dropped = 0;
  double wall_seconds = 0.0;
  int hz = 0;
};

/// Process-wide sampling profiler. All methods are thread-safe.
class CpuProfiler {
 public:
  static constexpr int kDefaultHz = 97;  // prime: avoids phase-locking
                                         // with 10ms/100ms periodic work

  static CpuProfiler& Global();

  /// Starts sampling every registered thread at `hz` (clamped to
  /// [1, 1000]). Idempotent while running (the first rate wins).
  /// False + `error` when timers are unavailable (non-Linux).
  bool Start(int hz = kDefaultHz, std::string* error = nullptr);

  /// Disarms every per-thread timer. Buffered samples stay drainable.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  int hz() const { return hz_.load(std::memory_order_relaxed); }

  /// Registers the calling thread for sampling (idempotent; cheap
  /// after the first call). PhaseScope and the thread pool call this;
  /// only threads that registered are ever sampled. Safe whether or
  /// not the profiler is running — registration while running arms a
  /// timer immediately.
  void RegisterCurrentThread();

  /// Consumes every thread's unread samples (including threads that
  /// exited since the last drain) and folds them into an aggregated
  /// Profile. Safe while handlers write. `wall_seconds` is the time
  /// since the previous Drain (or Start).
  Profile Drain();

  /// Discards all unread samples — the start of a collection window.
  void DiscardPending();

  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

 private:
  CpuProfiler();
  ~CpuProfiler();
  struct Impl;
  Impl* impl_;
  std::atomic<bool> running_{false};
  std::atomic<int> hz_{0};
};

/// Collapsed-stack text of a profile (flamegraph.pl compatible): one
/// `phase;root;...;leaf count` line per unique stack, root first, the
/// phase name as the synthetic root frame. Frames symbolize via dladdr
/// (binaries link with -rdynamic), then the executable's .symtab for
/// local symbols, + demangling; unresolved frames render as
/// "module+0x<off>" or "0x<pc>".
std::string CollapseProfile(const Profile& profile);

/// JSON form: {"hz","wall_seconds","samples","dropped",
/// "phases":{name:count,...},"stacks":[{"phase","count",
/// "request_id","frames":[...]}]} — stacks capped to the top
/// `max_stacks` by count.
void WriteProfileJson(std::ostream& out, const Profile& profile,
                      size_t max_stacks = 200);

/// The calling thread's current phase tag.
Phase CurrentPhase();

/// RAII phase tag: installs `phase` (and snapshots the current
/// obs::TraceContext request id) for the calling thread's CPU samples
/// *and* heap attribution; restores the previous tag on destruction.
/// Nests. Registers the thread with the profiler on first use.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  uint8_t prev_phase_;
  uint8_t prev_zone_;
  uint64_t prev_request_id_;
};

/// One phase, instrumented once: opens the trace span `name`, installs
/// the profiler tag `phase`, and adds the phase's wall time to a
/// non-null `sink_us` (never assigns, so a sink can sum a batch). The
/// clock is read only when tracing is on or a sink is given.
class PhaseSpan {
 public:
  PhaseSpan(const char* name, Phase phase, double* sink_us)
      : span_(name, sink_us), tag_(phase) {}

 private:
  obs::ScopedSpan span_;
  PhaseScope tag_;
};

}  // namespace skyex::prof

#define SKYEX_PROF_CONCAT_INNER(a, b) a##b
#define SKYEX_PROF_CONCAT(a, b) SKYEX_PROF_CONCAT_INNER(a, b)
#define SKYEX_PROF_PHASE(phase)                     \
  ::skyex::prof::PhaseScope SKYEX_PROF_CONCAT(      \
      skyex_prof_phase_, __LINE__)(phase)
#define SKYEX_PHASE(name, phase, sink_us)           \
  ::skyex::prof::PhaseSpan SKYEX_PROF_CONCAT(       \
      skyex_phase_, __LINE__)(name, phase, sink_us)

#endif  // SKYEX_PROF_PROF_H_
