#ifndef SKYEX_PROF_HEAP_H_
#define SKYEX_PROF_HEAP_H_

// Per-subsystem heap attribution via global operator new/delete hooks.
//
// Every `new`/`delete` in the process routes through replacement
// operators (prof/heap.cc) that prepend a 32-byte header recording the
// requested size and the allocating thread's current *zone* (the
// prof::Phase tag installed by HeapZone or PhaseScope). Frees read the
// header back, so bytes are always credited to the zone that
// allocated them — exact attribution, no sampling, at the cost of one
// header per allocation and a few relaxed atomic adds.
//
// Zone accounting is a fixed array of cache-line-padded atomic cells
// indexed by Phase — constant-initialized, so allocations during
// static initialization (before main) account correctly as untagged.
//
// The hooks are compiled out of sanitizer builds (ASan/TSan install
// their own new/delete interceptors; colliding with them breaks leak
// checking); every entry point below still links there but reports
// zeros / false. Call HeapHooksActive() to know which case a binary is
// in — the tests skip exactness assertions when hooks are absent.
//
// The signal-safety story is trivial: the hooks never run inside the
// SIGPROF handler (it does not allocate), and the handler may safely
// interrupt a hook (plain relaxed atomics, no locks).

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "prof/prof.h"

namespace skyex::prof {

/// Accounting snapshot of one zone. Monotonic counters except
/// live_bytes (alloc - freed) and peak_live_bytes (CAS max, may lag a
/// few concurrent allocations — a diagnostic, not a ledger).
struct HeapZoneStats {
  uint64_t alloc_bytes = 0;  // requested bytes, cumulative
  uint64_t freed_bytes = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;
  int64_t live_bytes = 0;
  uint64_t peak_live_bytes = 0;
};

/// True when the allocation hooks are compiled in and accounting.
bool HeapHooksActive();

/// Stats of one zone / of every zone (indexed by Phase). Allocation-
/// free on purpose: callers snapshot around exact-delta assertions.
HeapZoneStats HeapStatsFor(Phase zone);
void HeapStatsAll(HeapZoneStats out[kPhaseCount]);

/// The calling thread's current allocation zone.
Phase CurrentHeapZone();

/// RAII allocation tag: allocations on this thread inside the scope
/// are credited to `zone`; restores the previous zone on destruction.
/// Nests (inner-most zone wins). Unlike PhaseScope it does NOT touch
/// the CPU-sample phase — use it where memory should be attributed to
/// a subsystem without re-labeling its CPU time.
class HeapZone {
 public:
  explicit HeapZone(Phase zone);
  ~HeapZone();

  HeapZone(const HeapZone&) = delete;
  HeapZone& operator=(const HeapZone&) = delete;

 private:
  uint8_t prev_zone_;
};

/// Publishes per-zone gauges into the global metrics registry:
/// `prof/heap_live_bytes_<zone>`, `prof/heap_peak_bytes_<zone>`,
/// `prof/heap_alloc_bytes_<zone>`, `prof/heap_allocs_<zone>` (flat
/// names; the Prometheus exposition renders them as
/// `skyex_prof_heap_live_bytes_extraction` etc.). No-op when the
/// hooks are inactive. The serve /metrics handler calls this per
/// scrape.
void PublishHeapGauges();

/// {"active":bool,"zones":{name:{...stats...},...}} for
/// GET /debug/pprof/heap.
void WriteHeapProfileJson(std::ostream& out);

namespace internal {
// Accounting entry points used by the operator new/delete
// replacements; exposed so tests can simulate hook traffic in builds
// where the real hooks are stripped.
void AccountAlloc(Phase zone, size_t bytes);
void AccountFree(Phase zone, size_t bytes);
void ResetHeapStatsForTest();
// Installs the calling thread's allocation zone, returning the
// previous one. HeapZone and prof::PhaseScope route through this.
uint8_t SetThreadHeapZone(uint8_t zone);
}  // namespace internal

}  // namespace skyex::prof

#endif  // SKYEX_PROF_HEAP_H_
