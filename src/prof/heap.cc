#include "prof/heap.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <ostream>

#include "obs/metrics.h"

// The operator new/delete replacements below are compiled only when the
// build is not sanitized — ASan/TSan install their own interceptors and
// must keep ownership of the heap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// gcc-style sanitizer detection: hooks off.
#elif defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer) && \
    !__has_feature(memory_sanitizer)
#define SKYEX_PROF_HEAP_HOOKS 1
#endif
#else
#define SKYEX_PROF_HEAP_HOOKS 1
#endif

namespace skyex::prof {

namespace {

// Per-zone accounting cells. Cache-line padded so extraction workers
// hammering their zone do not false-share with serve threads; constant
// initialization makes pre-main allocations safe.
struct alignas(64) ZoneCell {
  std::atomic<uint64_t> alloc_bytes{0};
  std::atomic<uint64_t> freed_bytes{0};
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};
  std::atomic<uint64_t> peak_live{0};
};

ZoneCell g_zones[kPhaseCount];

// Trivially-initialized TLS: readable from the very first allocation a
// thread makes, before any dynamic TLS construction.
thread_local uint8_t t_zone = 0;

uint64_t LiveOf(const ZoneCell& cell) {
  const uint64_t alloc = cell.alloc_bytes.load(std::memory_order_relaxed);
  const uint64_t freed = cell.freed_bytes.load(std::memory_order_relaxed);
  return alloc > freed ? alloc - freed : 0;
}

}  // namespace

bool HeapHooksActive() {
#if defined(SKYEX_PROF_HEAP_HOOKS)
  return true;
#else
  return false;
#endif
}

HeapZoneStats HeapStatsFor(Phase zone) {
  const size_t index = static_cast<size_t>(zone);
  HeapZoneStats stats;
  if (index >= kPhaseCount) return stats;
  const ZoneCell& cell = g_zones[index];
  stats.alloc_bytes = cell.alloc_bytes.load(std::memory_order_relaxed);
  stats.freed_bytes = cell.freed_bytes.load(std::memory_order_relaxed);
  stats.allocs = cell.allocs.load(std::memory_order_relaxed);
  stats.frees = cell.frees.load(std::memory_order_relaxed);
  stats.live_bytes = static_cast<int64_t>(stats.alloc_bytes) -
                     static_cast<int64_t>(stats.freed_bytes);
  stats.peak_live_bytes = cell.peak_live.load(std::memory_order_relaxed);
  return stats;
}

void HeapStatsAll(HeapZoneStats out[kPhaseCount]) {
  for (size_t i = 0; i < kPhaseCount; ++i) {
    out[i] = HeapStatsFor(static_cast<Phase>(i));
  }
}

Phase CurrentHeapZone() {
  return t_zone < kPhaseCount ? static_cast<Phase>(t_zone)
                              : Phase::kUntagged;
}

HeapZone::HeapZone(Phase zone)
    : prev_zone_(internal::SetThreadHeapZone(static_cast<uint8_t>(zone))) {}

HeapZone::~HeapZone() { internal::SetThreadHeapZone(prev_zone_); }

void PublishHeapGauges() {
  if (!HeapHooksActive()) return;
  auto& registry = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const HeapZoneStats stats = HeapStatsFor(static_cast<Phase>(i));
    const std::string zone = PhaseName(static_cast<Phase>(i));
    registry.GetGauge("prof/heap_live_bytes_" + zone).Set(static_cast<double>(std::max<int64_t>(0, stats.live_bytes)));
    registry.GetGauge("prof/heap_peak_bytes_" + zone).Set(static_cast<double>(stats.peak_live_bytes));
    registry.GetGauge("prof/heap_alloc_bytes_" + zone).Set(static_cast<double>(stats.alloc_bytes));
    registry.GetGauge("prof/heap_allocs_" + zone).Set(static_cast<double>(stats.allocs));
  }
}

void WriteHeapProfileJson(std::ostream& out) {
  std::string body = "{\"active\":";
  body += HeapHooksActive() ? "true" : "false";
  body += ",\"zones\":{";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const HeapZoneStats stats = HeapStatsFor(static_cast<Phase>(i));
    if (i > 0) body += ',';
    body += '"';
    body += PhaseName(static_cast<Phase>(i));
    body += "\":{\"live_bytes\":" + std::to_string(stats.live_bytes);
    body += ",\"peak_live_bytes\":" + std::to_string(stats.peak_live_bytes);
    body += ",\"alloc_bytes\":" + std::to_string(stats.alloc_bytes);
    body += ",\"freed_bytes\":" + std::to_string(stats.freed_bytes);
    body += ",\"allocs\":" + std::to_string(stats.allocs);
    body += ",\"frees\":" + std::to_string(stats.frees);
    body += '}';
  }
  body += "}}";
  out << body;
}

namespace internal {

void AccountAlloc(Phase zone, size_t bytes) {
  const size_t index = static_cast<size_t>(zone) < kPhaseCount
                           ? static_cast<size_t>(zone)
                           : 0;
  ZoneCell& cell = g_zones[index];
  cell.alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.allocs.fetch_add(1, std::memory_order_relaxed);
  const uint64_t live = LiveOf(cell);
  uint64_t peak = cell.peak_live.load(std::memory_order_relaxed);
  while (live > peak &&
         !cell.peak_live.compare_exchange_weak(peak, live,
                                               std::memory_order_relaxed)) {
  }
}

void AccountFree(Phase zone, size_t bytes) {
  const size_t index = static_cast<size_t>(zone) < kPhaseCount
                           ? static_cast<size_t>(zone)
                           : 0;
  ZoneCell& cell = g_zones[index];
  cell.freed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.frees.fetch_add(1, std::memory_order_relaxed);
}

void ResetHeapStatsForTest() {
  for (ZoneCell& cell : g_zones) {
    cell.alloc_bytes.store(0, std::memory_order_relaxed);
    cell.freed_bytes.store(0, std::memory_order_relaxed);
    cell.allocs.store(0, std::memory_order_relaxed);
    cell.frees.store(0, std::memory_order_relaxed);
    cell.peak_live.store(0, std::memory_order_relaxed);
  }
}

uint8_t SetThreadHeapZone(uint8_t zone) {
  const uint8_t prev = t_zone;
  t_zone = zone < kPhaseCount ? zone : 0;
  return prev;
}

}  // namespace internal

}  // namespace skyex::prof

// ---------------------------------------------------------------------
// Global operator new/delete replacements.
// ---------------------------------------------------------------------
#if defined(SKYEX_PROF_HEAP_HOOKS)

namespace {

// Prepended to every allocation. 32 bytes keeps the user pointer at
// max_align_t alignment for default-aligned requests.
struct AllocHeader {
  uint64_t magic_zone;  // kHeaderMagic | zone in the low byte
  uint64_t size;        // requested bytes (what we account)
  void* raw;            // the malloc()ed block to free
  uint64_t pad;
};
static_assert(sizeof(AllocHeader) == 32, "header must stay 32 bytes");
static_assert(alignof(std::max_align_t) <= 32,
              "header must preserve default alignment");

constexpr uint64_t kHeaderMagic = 0x534b5945'58480000ULL;  // "SKYEXH"
constexpr uint64_t kMagicMask = 0xffffffff'ffff0000ULL;

void* AllocateTagged(size_t size, size_t align) noexcept {
  size_t extra = sizeof(AllocHeader);
  if (align > alignof(std::max_align_t)) extra += align;
  void* raw = std::malloc(size + extra);
  while (raw == nullptr) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();  // may throw bad_alloc, free memory, or replace itself
    raw = std::malloc(size + extra);
  }
  uintptr_t user =
      reinterpret_cast<uintptr_t>(raw) + sizeof(AllocHeader);
  if (align > alignof(std::max_align_t)) {
    user = (user + align - 1) & ~(static_cast<uintptr_t>(align) - 1);
  }
  AllocHeader* header = reinterpret_cast<AllocHeader*>(user) - 1;
  const uint8_t zone = static_cast<uint8_t>(skyex::prof::CurrentHeapZone());
  header->magic_zone = kHeaderMagic | zone;
  header->size = size;
  header->raw = raw;
  header->pad = 0;
  skyex::prof::internal::AccountAlloc(static_cast<skyex::prof::Phase>(zone),
                                      size);
  return reinterpret_cast<void*>(user);
}

void FreeTagged(void* ptr) noexcept {
  if (ptr == nullptr) return;
  AllocHeader* header = static_cast<AllocHeader*>(ptr) - 1;
  if ((header->magic_zone & kMagicMask) != kHeaderMagic) {
    // Not ours (allocated before these hooks were linked in, or by a
    // foreign allocator); hand it straight back.
    std::free(ptr);
    return;
  }
  const uint8_t zone = static_cast<uint8_t>(header->magic_zone & 0xff);
  const uint64_t size = header->size;
  void* raw = header->raw;
  header->magic_zone = 0;  // poison: double frees fall into free(ptr)
  skyex::prof::internal::AccountFree(static_cast<skyex::prof::Phase>(zone),
                                     size);
  std::free(raw);
}

void* AllocateOrThrow(size_t size, size_t align) {
  void* ptr = AllocateTagged(size, align);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return AllocateTagged(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return AllocateTagged(size, 0);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateTagged(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateTagged(size, static_cast<size_t>(align));
}

void operator delete(void* ptr) noexcept { FreeTagged(ptr); }
void operator delete[](void* ptr) noexcept { FreeTagged(ptr); }
void operator delete(void* ptr, size_t) noexcept { FreeTagged(ptr); }
void operator delete[](void* ptr, size_t) noexcept { FreeTagged(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  FreeTagged(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  FreeTagged(ptr);
}
void operator delete(void* ptr, size_t, std::align_val_t) noexcept {
  FreeTagged(ptr);
}
void operator delete[](void* ptr, size_t, std::align_val_t) noexcept {
  FreeTagged(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  FreeTagged(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  FreeTagged(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  FreeTagged(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  FreeTagged(ptr);
}

#endif  // SKYEX_PROF_HEAP_HOOKS
