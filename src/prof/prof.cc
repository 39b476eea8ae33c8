#include "prof/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#if defined(__linux__)
#include <fcntl.h>
#include <link.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

#include "obs/context.h"
#include "obs/json.h"
#include "prof/heap.h"

namespace skyex::prof {

namespace {

const char* const kPhaseNames[kPhaseCount] = {
    "untagged", "serve", "blocking", "extraction",
    "skyline",  "ranking", "training", "shard", "prefilter",
};

// Handler-visible state. File-scope atomics (not class members) so the
// signal handler touches nothing that could require construction.
std::atomic<bool> g_running{false};

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The slot payload is a seqlock's data: the writer stores it between
// invalidating and committing the ticket, the reader loads it between
// two ticket checks, both through relaxed atomics. The fences order the
// payload against the tickets.
template <typename T>
T LoadRelaxed(T& field) {
  return std::atomic_ref<T>(field).load(std::memory_order_relaxed);
}

template <typename T>
void StoreRelaxed(T& field, T value) {
  std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
}

#if defined(__linux__)
pid_t CurrentTid() {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}
#endif

}  // namespace

const char* PhaseName(Phase phase) {
  const size_t index = static_cast<size_t>(phase);
  return index < kPhaseCount ? kPhaseNames[index] : "invalid";
}

// --- SampleRing -------------------------------------------------------

SampleRing::SampleRing(size_t capacity)
    : slots_(RoundUpPow2(std::max<size_t>(2, capacity))) {}

void SampleRing::Write(const Sample& sample) {
  const uint64_t w = writes_.load(std::memory_order_relaxed);
  Slot& slot = slots_[w & (slots_.size() - 1)];
  // Invalidate before filling: a reader copying this slot sees the
  // ticket change and discards its copy instead of keeping torn data.
  slot.ticket.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const uint32_t depth = std::min<uint32_t>(sample.depth, Sample::kMaxFrames);
  StoreRelaxed(slot.sample.request_id, sample.request_id);
  StoreRelaxed(slot.sample.depth, depth);
  StoreRelaxed(slot.sample.phase, sample.phase);
  for (uint32_t i = 0; i < depth; ++i) {
    StoreRelaxed(slot.sample.frames[i], sample.frames[i]);
  }
  slot.ticket.store(w + 1, std::memory_order_release);
  writes_.store(w + 1, std::memory_order_release);
}

uint64_t SampleRing::Drain(std::vector<Sample>* out) {
  const uint64_t w = writes_.load(std::memory_order_acquire);
  uint64_t r = read_.load(std::memory_order_relaxed);
  uint64_t dropped = 0;
  if (w - r > slots_.size()) {
    // The writer lapped us; the oldest (w - r - capacity) samples were
    // overwritten before this drain.
    dropped = w - r - slots_.size();
    r = w - slots_.size();
  }
  for (; r < w; ++r) {
    Slot& slot = slots_[r & (slots_.size() - 1)];
    if (slot.ticket.load(std::memory_order_acquire) != r + 1) {
      ++dropped;  // overwritten or mid-write
      continue;
    }
    Sample copy{};
    copy.request_id = LoadRelaxed(slot.sample.request_id);
    copy.depth = std::min<uint32_t>(LoadRelaxed(slot.sample.depth),
                                    Sample::kMaxFrames);
    copy.phase = LoadRelaxed(slot.sample.phase);
    for (uint32_t i = 0; i < copy.depth; ++i) {
      copy.frames[i] = LoadRelaxed(slot.sample.frames[i]);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.ticket.load(std::memory_order_relaxed) != r + 1) {
      ++dropped;  // rewritten while we copied
      continue;
    }
    out->push_back(copy);
  }
  read_.store(w, std::memory_order_relaxed);
  dropped_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

// --- per-thread state + registry --------------------------------------

namespace {

struct ThreadState {
  // 4,096 slots of ~408 B (1.67 MB), so a thread gets its ring only when
  // sampling starts for it, and keeps it until it exits so that samples
  // taken before a Stop() stay drainable. Published before the thread's
  // timer is armed: release on store, acquire in the handler.
  std::atomic<SampleRing*> ring{nullptr};
  std::atomic<uint8_t> phase{0};
  std::atomic<uint64_t> request_id{0};
#if defined(__linux__)
  pid_t tid = 0;
  pthread_t pthread{};
  timer_t timer{};
  bool timer_armed = false;
#endif

  ~ThreadState() { delete ring.load(std::memory_order_relaxed); }
};

struct ProfRegistry {
  std::mutex mutex;
  std::vector<ThreadState*> threads;
  // Samples of threads that exited since the last drain, plus the
  // drops their final drains found, folded into the next Drain().
  std::vector<Sample> retired;
  uint64_t retired_window_dropped = 0;
  bool handler_installed = false;
  std::chrono::steady_clock::time_point window_start =
      std::chrono::steady_clock::now();
};

// Leaked: thread destructors may run during static destruction.
ProfRegistry& Registry() {
  static ProfRegistry* registry = new ProfRegistry();
  return *registry;
}

// Raw pointer (trivially destructible) so the signal handler can read
// it at any point of the thread's life; null before registration and
// again before the state is torn down.
thread_local ThreadState* t_state = nullptr;

}  // namespace

// extern "C" with external linkage so dladdr can name the handler's
// own frame at dump time — that's how SymbolizedFrames() recognizes
// and strips the capture prefix (handler + signal trampoline).
extern "C" void skyex_prof_sigprof_handler(int, siginfo_t*, void*) {
  ThreadState* state = t_state;
  if (state == nullptr || !g_running.load(std::memory_order_relaxed)) {
    return;
  }
  SampleRing* ring = state->ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const int saved_errno = errno;
  // Captured on the handler's stack, then copied into the ring: a
  // concurrent Drain may be reading the slot.
  Sample sample;
  const int depth =
      ::backtrace(sample.frames, static_cast<int>(Sample::kMaxFrames));
  sample.depth = depth > 0 ? static_cast<uint32_t>(depth) : 0;
  sample.phase =
      static_cast<Phase>(state->phase.load(std::memory_order_relaxed));
  sample.request_id = state->request_id.load(std::memory_order_relaxed);
  ring->Write(sample);
  errno = saved_errno;
}

namespace {

#if defined(__linux__)

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

bool ArmTimer(ThreadState* state, int hz, std::string* error) {
  if (state->timer_armed) return true;
  // The ring is published before the timer exists, so the first signal
  // already finds it.
  if (state->ring.load(std::memory_order_relaxed) == nullptr) {
    state->ring.store(new SampleRing(), std::memory_order_release);
  }
  clockid_t clock_id;
  if (::pthread_getcpuclockid(state->pthread, &clock_id) != 0) {
    if (error != nullptr) *error = "pthread_getcpuclockid failed";
    return false;
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
#if defined(sigev_notify_thread_id)
  sev.sigev_notify_thread_id = state->tid;
#else
  sev._sigev_un._tid = state->tid;
#endif
  if (::timer_create(clock_id, &sev, &state->timer) != 0) {
    if (error != nullptr) {
      *error = std::string("timer_create: ") + std::strerror(errno);
    }
    return false;
  }
  const long period_ns = 1000000000L / hz;
  struct itimerspec spec;
  std::memset(&spec, 0, sizeof(spec));
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  // First fire offset de-phased per thread so a fleet of workers does
  // not tick (and interrupt syscalls) in lockstep.
  long first_ns = period_ns / 2 + (state->tid % 97) * (period_ns / 128 + 1);
  first_ns = std::max(1L, std::min(first_ns, 999999999L));
  spec.it_value.tv_sec = 0;
  spec.it_value.tv_nsec = first_ns;
  if (::timer_settime(state->timer, 0, &spec, nullptr) != 0) {
    ::timer_delete(state->timer);
    if (error != nullptr) {
      *error = std::string("timer_settime: ") + std::strerror(errno);
    }
    return false;
  }
  state->timer_armed = true;
  return true;
}

void DisarmTimer(ThreadState* state) {
  if (!state->timer_armed) return;
  ::timer_delete(state->timer);
  state->timer_armed = false;
}

void InstallHandlerLocked(ProfRegistry* registry) {
  if (registry->handler_installed) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &skyex_prof_sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGPROF, &action, nullptr);
  registry->handler_installed = true;
}

#else  // !__linux__

bool ArmTimer(ThreadState*, int, std::string* error) {
  if (error != nullptr) *error = "sampling timers unavailable";
  return false;
}
void DisarmTimer(ThreadState*) {}
void InstallHandlerLocked(ProfRegistry*) {}

#endif

// Unregisters the calling thread at exit: disarm, detach the handler's
// view, drain leftovers into the retired pool.
struct ThreadRegistrar {
  ThreadState* state = nullptr;
  ~ThreadRegistrar() {
    if (state == nullptr) return;
    ProfRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    DisarmTimer(state);
    // After this store no new samples can land (the handler checks);
    // a signal already past the check on *this* thread is impossible —
    // we are running on it.
    t_state = nullptr;
    if (SampleRing* ring = state->ring.load(std::memory_order_relaxed)) {
      registry.retired.reserve(registry.retired.size() + 64);
      registry.retired_window_dropped += ring->Drain(&registry.retired);
    }
    registry.threads.erase(
        std::remove(registry.threads.begin(), registry.threads.end(), state),
        registry.threads.end());
    delete state;
    state = nullptr;
  }
};

thread_local ThreadRegistrar t_registrar;

}  // namespace

// --- CpuProfiler ------------------------------------------------------

struct CpuProfiler::Impl {};  // state lives in ProfRegistry + globals

CpuProfiler::CpuProfiler() : impl_(nullptr) {}
CpuProfiler::~CpuProfiler() = default;

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

void CpuProfiler::RegisterCurrentThread() {
  if (t_state != nullptr) return;
  ThreadState* state = new ThreadState();
#if defined(__linux__)
  state->tid = CurrentTid();
  state->pthread = ::pthread_self();
#endif
  ProfRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.threads.push_back(state);
  t_registrar.state = state;
  t_state = state;
  if (running_.load(std::memory_order_relaxed)) {
    ArmTimer(state, hz_.load(std::memory_order_relaxed), nullptr);
  }
}

bool CpuProfiler::Start(int hz, std::string* error) {
#if !defined(__linux__)
  (void)hz;
  if (error != nullptr) *error = "sampling timers unavailable";
  return false;
#else
  hz = std::clamp(hz, 1, 1000);
  RegisterCurrentThread();
  ProfRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (running_.load(std::memory_order_relaxed)) return true;
  // Prime the lazy libgcc load inside backtrace() from normal context;
  // the first call may allocate, which must never happen in a handler.
  void* prime[4];
  ::backtrace(prime, 4);
  InstallHandlerLocked(&registry);
  hz_.store(hz, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  g_running.store(true, std::memory_order_relaxed);
  registry.window_start = std::chrono::steady_clock::now();
  for (ThreadState* state : registry.threads) {
    std::string arm_error;
    if (!ArmTimer(state, hz, &arm_error)) {
      // A thread mid-exit can fail to arm; sampling the rest is still
      // useful, so record the first failure but keep going.
      if (error != nullptr && error->empty()) *error = arm_error;
    }
  }
  return true;
#endif
}

void CpuProfiler::Stop() {
  ProfRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (!running_.load(std::memory_order_relaxed)) return;
  g_running.store(false, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
  for (ThreadState* state : registry.threads) DisarmTimer(state);
}

Profile CpuProfiler::Drain() {
  Profile profile;
  std::vector<Sample> samples;
  {
    ProfRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    samples.swap(registry.retired);
    profile.dropped = std::exchange(registry.retired_window_dropped, 0);
    for (ThreadState* state : registry.threads) {
      SampleRing* ring = state->ring.load(std::memory_order_relaxed);
      if (ring == nullptr) continue;  // never sampled
      profile.dropped += ring->Drain(&samples);
    }
    const auto now = std::chrono::steady_clock::now();
    profile.wall_seconds =
        std::chrono::duration<double>(now - registry.window_start).count();
    registry.window_start = now;
  }
  profile.hz = hz_.load(std::memory_order_relaxed);
  profile.samples = samples.size();

  // Fold identical (phase, stack) samples. vector<void*> compares
  // lexicographically, which is exactly the grouping we need.
  std::map<std::pair<uint8_t, std::vector<void*>>,
           std::pair<uint64_t, uint64_t>>
      folded;
  for (const Sample& sample : samples) {
    const size_t phase_index =
        static_cast<size_t>(sample.phase) < kPhaseCount
            ? static_cast<size_t>(sample.phase)
            : 0;
    ++profile.phase_samples[phase_index];
    std::vector<void*> frames(sample.frames, sample.frames + sample.depth);
    auto& cell = folded[{static_cast<uint8_t>(phase_index),
                         std::move(frames)}];
    ++cell.first;
    if (sample.request_id != 0) cell.second = sample.request_id;
  }
  profile.entries.reserve(folded.size());
  for (auto& [key, cell] : folded) {
    Profile::Entry entry;
    entry.phase = static_cast<Phase>(key.first);
    entry.frames = key.second;
    entry.count = cell.first;
    entry.last_request_id = cell.second;
    profile.entries.push_back(std::move(entry));
  }
  std::sort(profile.entries.begin(), profile.entries.end(),
            [](const Profile::Entry& a, const Profile::Entry& b) {
              return a.count > b.count;
            });
  return profile;
}

void CpuProfiler::DiscardPending() { (void)Drain(); }

// --- symbolization + export -------------------------------------------

namespace {

/// The running executable's function symbols from its .symtab, sorted
/// by run-time address. dladdr reads only the dynamic symbol table, and
/// -rdynamic exports only external symbols, so anonymous-namespace
/// functions and GCC's local `.constprop`/`.isra` clones are named from
/// here.
struct LocalSymbols {
  struct Symbol {
    uintptr_t start = 0;  // run-time address: file value + load bias
    uintptr_t end = 0;
    size_t name = 0;  // offset into `names`
    bool operator<(const Symbol& other) const { return start < other.start; }
  };
  std::vector<Symbol> symbols;
  std::string names;  // the string table the symbols index
};

LocalSymbols ReadLocalSymbols() {
  LocalSymbols out;
#if defined(__linux__)
  // The main program is the first object dl_iterate_phdr reports; its
  // dlpi_addr is the load bias between file and run-time addresses.
  uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* data) {
        *static_cast<uintptr_t*>(data) = info->dlpi_addr;
        return 1;
      },
      &bias);
  const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return out;
  const auto read_at = [fd](void* dst, size_t size, uint64_t offset) {
    return ::pread(fd, dst, size, static_cast<off_t>(offset)) ==
           static_cast<ssize_t>(size);
  };
  ElfW(Ehdr) header;
  std::vector<ElfW(Shdr)> sections;
  if (read_at(&header, sizeof(header), 0) &&
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) == 0 &&
      header.e_shentsize == sizeof(ElfW(Shdr))) {
    sections.resize(header.e_shnum);
    if (!read_at(sections.data(), sections.size() * sizeof(ElfW(Shdr)),
                 header.e_shoff)) {
      sections.clear();
    }
  }
  for (const ElfW(Shdr)& section : sections) {
    if (section.sh_type != SHT_SYMTAB || section.sh_link >= sections.size()) {
      continue;
    }
    const ElfW(Shdr)& strtab = sections[section.sh_link];
    std::vector<ElfW(Sym)> table(section.sh_size / sizeof(ElfW(Sym)));
    out.names.resize(strtab.sh_size);
    if (read_at(table.data(), table.size() * sizeof(ElfW(Sym)),
                section.sh_offset) &&
        read_at(out.names.data(), out.names.size(), strtab.sh_offset)) {
      for (const ElfW(Sym)& sym : table) {
        if (ELF64_ST_TYPE(sym.st_info) == STT_FUNC && sym.st_size > 0 &&
            sym.st_shndx != SHN_UNDEF && sym.st_name < out.names.size()) {
          out.symbols.push_back({bias + sym.st_value,
                                 bias + sym.st_value + sym.st_size,
                                 sym.st_name});
        }
      }
    }
    break;
  }
  ::close(fd);
  std::sort(out.symbols.begin(), out.symbols.end());
#endif
  return out;
}

/// Mangled name of the executable's function containing `pc`, or
/// nullptr. The symbol table is read once, by the first dump that needs
/// it, never in the signal handler.
const char* LocalSymbolName(const void* pc) {
  static const LocalSymbols* local = new LocalSymbols(ReadLocalSymbols());
  const LocalSymbols::Symbol key{reinterpret_cast<uintptr_t>(pc)};
  auto it = std::upper_bound(local->symbols.begin(), local->symbols.end(),
                             key);
  if (it == local->symbols.begin() || key.start >= (--it)->end) {
    return nullptr;
  }
  return local->names.c_str() + it->name;
}

/// Best-effort name of one program counter, cached per collapse call.
std::string SymbolizePc(void* pc) {
  Dl_info info;
  const bool found = ::dladdr(pc, &info) != 0;
  const char* symbol = found ? info.dli_sname : nullptr;
  if (symbol == nullptr) symbol = LocalSymbolName(pc);
  if (symbol != nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(symbol, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string name(demangled);
      std::free(demangled);
      return name;
    }
    if (demangled != nullptr) std::free(demangled);
    return symbol;
  }
  char buffer[64];
  if (found && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    std::snprintf(buffer, sizeof(buffer), "%s+0x%" PRIxPTR, base,
                  reinterpret_cast<uintptr_t>(pc) -
                      reinterpret_cast<uintptr_t>(info.dli_fbase));
    return buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "0x%" PRIxPTR,
                reinterpret_cast<uintptr_t>(pc));
  return buffer;
}

/// Symbolizes an entry's frames leaf-first, dropping the profiler's
/// own handler + signal-trampoline prefix.
std::vector<std::string> SymbolizedFrames(
    const Profile::Entry& entry,
    std::map<void*, std::string>* cache) {
  std::vector<std::string> names;
  names.reserve(entry.frames.size());
  for (void* pc : entry.frames) {
    auto it = cache->find(pc);
    if (it == cache->end()) {
      it = cache->emplace(pc, SymbolizePc(pc)).first;
    }
    names.push_back(it->second);
  }
  // The capture runs inside the handler: frames lead with the handler
  // itself, then the kernel's signal trampoline. Drop both so stacks
  // start at the interrupted function. (The handler is extern "C"
  // precisely so its frame symbolizes recognizably; the trampoline
  // right above it usually doesn't — libc.so.6+0x<off> — hence the
  // +2.)
  for (size_t i = 0; i < names.size() && i < 4; ++i) {
    if (names[i].find("skyex_prof_sigprof_handler") != std::string::npos) {
      const size_t skip = std::min(names.size(), i + 2);
      names.erase(names.begin(), names.begin() + skip);
      break;
    }
  }
  return names;
}

}  // namespace

std::string CollapseProfile(const Profile& profile) {
  std::map<void*, std::string> cache;
  // Re-fold by symbolized stack: distinct pcs inside one function
  // (different sample offsets) collapse to one flamegraph line.
  std::map<std::string, uint64_t> lines;
  for (const Profile::Entry& entry : profile.entries) {
    const std::vector<std::string> names = SymbolizedFrames(entry, &cache);
    std::string line = PhaseName(entry.phase);
    for (auto it = names.rbegin(); it != names.rend(); ++it) {  // root first
      line += ';';
      line += *it;
    }
    lines[line] += entry.count;
  }
  std::string out;
  for (const auto& [line, count] : lines) {
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

void WriteProfileJson(std::ostream& out, const Profile& profile,
                      size_t max_stacks) {
  std::string body;
  body += "{\"hz\":" + std::to_string(profile.hz);
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.3f", profile.wall_seconds);
  body += ",\"wall_seconds\":";
  body += seconds;
  body += ",\"samples\":" + std::to_string(profile.samples);
  body += ",\"dropped\":" + std::to_string(profile.dropped);
  body += ",\"phases\":{";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (i > 0) body += ',';
    body += '"';
    body += kPhaseNames[i];
    body += "\":" + std::to_string(profile.phase_samples[i]);
  }
  body += "},\"stacks\":[";
  std::map<void*, std::string> cache;
  const size_t limit = std::min(max_stacks, profile.entries.size());
  for (size_t i = 0; i < limit; ++i) {
    const Profile::Entry& entry = profile.entries[i];
    if (i > 0) body += ',';
    body += "{\"phase\":\"";
    body += PhaseName(entry.phase);
    body += "\",\"count\":" + std::to_string(entry.count);
    body += ",\"request_id\":\"";
    body += obs::FormatRequestId(entry.last_request_id);
    body += "\",\"frames\":[";
    const std::vector<std::string> names = SymbolizedFrames(entry, &cache);
    for (size_t f = 0; f < names.size(); ++f) {
      if (f > 0) body += ',';
      body += '"';
      body += obs::json::Escape(names[f]);
      body += '"';
    }
    body += "]}";
  }
  body += "]}";
  out << body;
}

// --- phase scope ------------------------------------------------------

Phase CurrentPhase() {
  const ThreadState* state = t_state;
  if (state == nullptr) return Phase::kUntagged;
  const uint8_t phase = state->phase.load(std::memory_order_relaxed);
  return phase < kPhaseCount ? static_cast<Phase>(phase) : Phase::kUntagged;
}

PhaseScope::PhaseScope(Phase phase) {
  CpuProfiler::Global().RegisterCurrentThread();
  ThreadState* state = t_state;
  prev_phase_ = state->phase.load(std::memory_order_relaxed);
  prev_request_id_ = state->request_id.load(std::memory_order_relaxed);
  state->phase.store(static_cast<uint8_t>(phase),
                     std::memory_order_relaxed);
  state->request_id.store(obs::CurrentContext().request_id,
                          std::memory_order_relaxed);
  prev_zone_ = internal::SetThreadHeapZone(static_cast<uint8_t>(phase));
}

PhaseScope::~PhaseScope() {
  ThreadState* state = t_state;
  if (state != nullptr) {
    state->phase.store(prev_phase_, std::memory_order_relaxed);
    state->request_id.store(prev_request_id_, std::memory_order_relaxed);
  }
  internal::SetThreadHeapZone(prev_zone_);
}

}  // namespace skyex::prof
