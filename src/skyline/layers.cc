#include "skyline/layers.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "prof/prof.h"
#include "par/parallel_for.h"

namespace skyex::skyline {

namespace {

// Parallel peeling engages above this layer size; below it the serial
// window scan wins on latency.
constexpr size_t kParallelMinRows = 4096;
// Rows per partition-local BNL window task.
constexpr size_t kPartitionGrain = 1024;

constexpr size_t kNoPosition = static_cast<size_t>(-1);

}  // namespace

SkylinePeeler::SkylinePeeler(const ml::FeatureMatrix& matrix,
                             std::vector<size_t> rows,
                             const Preference& preference)
    : matrix_(matrix),
      preference_(preference),
      compiled_(Compile(preference)),
      order_(std::move(rows)) {
  if (!compiled_.has_value()) return;
  // Pre-sort in the dominance-compatible order of PresortCompare (group
  // sums, with each group's terms breaking ties of its rounded sum): a
  // dominating row always sorts strictly before the rows it dominates.
  // The rows are read only when two keys tie.
  const size_t key_size = compiled_->KeySize();
  std::vector<double> keys(order_.size() * key_size);
  par::ForOptions key_options;
  key_options.grain = 2048;
  key_options.chunking = par::Chunking::kStatic;
  par::ParallelFor(0, order_.size(), key_options, [&](size_t k) {
    compiled_->Key(matrix_.Row(order_[k]), keys.data() + k * key_size);
  });
  std::vector<size_t> positions(order_.size());
  std::iota(positions.begin(), positions.end(), 0);
  std::sort(positions.begin(), positions.end(),
            [&](size_t x, size_t y) {
              const double* kx = keys.data() + x * key_size;
              const double* ky = keys.data() + y * key_size;
              // Most rows differ in group 1's sum: decide those inline.
              if (key_size > 0 && kx[0] != ky[0]) return kx[0] > ky[0];
              const Comparison c = compiled_->PresortCompare(
                  matrix_.Row(order_[x]), kx, matrix_.Row(order_[y]), ky);
              if (c != Comparison::kEqual) return c == Comparison::kBetter;
              return order_[x] < order_[y];  // stable tie-break
            });
  std::vector<size_t> sorted;
  sorted.reserve(order_.size());
  for (size_t p : positions) sorted.push_back(order_[p]);
  order_ = std::move(sorted);
  presorted_ = true;
}

// With presorting, a dominator always precedes the rows it dominates, so
// the eviction branch in Next() never fires; without it (general trees)
// the full BNL handles out-of-order arrivals.

SkylinePeeler::~SkylinePeeler() {
  SKYEX_COUNTER_ADD("skyline/dominance_tests", dominance_tests_);
}

Comparison SkylinePeeler::CompareRows(size_t a, size_t b) const {
  ++dominance_tests_;
  const double* ra = matrix_.Row(a);
  const double* rb = matrix_.Row(b);
  if (compiled_.has_value()) return compiled_->Compare(ra, rb);
  return preference_.Compare(ra, rb);
}

// Exact parallel peel of the presorted order (see docs/parallelism.md):
//
//  0. Serial window scan of the leading slice. Its window holds the
//     strongest rows — they sort first — and is broadcast to every
//     later slice as a pruning filter. Without it, each slice's local
//     window balloons (it never sees the early global dominators) and
//     the merge goes quadratic.
//  1. Parallel over the remaining contiguous slices: scan each row
//     against the prefix window, then against the slice's local
//     append-only window (within a slice a dominator still precedes
//     the rows it dominates, so no eviction happens).
//  2. Concatenate prefix + local windows in slice order — ascending
//     positions, still presorted — and run the serial append-only
//     window scan over those candidates alone.
//
// Every globally undominated row survives all three steps (each step
// only removes rows a real dominator beat). Conversely a dominated row
// r has a dominator d earlier in the presort; if d was itself removed,
// transitivity walks the chain to a kept candidate that dominates r,
// and the merge scans every kept earlier candidate. The kept set is
// therefore the exact (unique) skyline, and emitting it plus the
// survivors in presorted order reproduces the serial state bit for bit.
std::vector<size_t> SkylinePeeler::PeelPresortedParallel() {
  const CompiledPreference& compiled = *compiled_;
  const size_t n = order_.size();
  const auto row_of = [this](size_t position) {
    return matrix_.Row(order_[position]);
  };

  // Phase 0: the prefix window (positions into order_).
  uint64_t tests = 0;
  const size_t prefix_end = std::min(n, kPartitionGrain);
  std::vector<size_t> prefix;
  for (size_t k = 0; k < prefix_end; ++k) {
    const double* candidate = row_of(k);
    bool dominated = false;
    for (size_t w : prefix) {
      ++tests;
      if (compiled.Compare(row_of(w), candidate) == Comparison::kBetter) {
        dominated = true;
        break;
      }
    }
    if (!dominated) prefix.push_back(k);
  }

  // Phase 1: per-slice windows, pruned by the prefix, merged in slice
  // order so the concatenation stays sorted ascending.
  struct SliceScan {
    std::vector<size_t> window;
    uint64_t tests = 0;
  };
  par::ForOptions partition_options;
  partition_options.grain = kPartitionGrain;
  partition_options.chunking = par::Chunking::kDynamic;
  SliceScan merged = par::ParallelReduceOrdered<SliceScan>(
      prefix_end, n, partition_options,
      [&](size_t begin, size_t end) {
        SliceScan scan;
        for (size_t k = begin; k < end; ++k) {
          const double* candidate = row_of(k);
          bool dominated = false;
          for (size_t w : prefix) {
            ++scan.tests;
            if (compiled.Compare(row_of(w), candidate) ==
                Comparison::kBetter) {
              dominated = true;
              break;
            }
          }
          for (size_t i = 0; !dominated && i < scan.window.size(); ++i) {
            ++scan.tests;
            if (compiled.Compare(row_of(scan.window[i]), candidate) ==
                Comparison::kBetter) {
              dominated = true;
            }
          }
          if (!dominated) scan.window.push_back(k);
        }
        return scan;
      },
      [](SliceScan acc, SliceScan next) {
        acc.window.insert(acc.window.end(), next.window.begin(),
                          next.window.end());
        acc.tests += next.tests;
        return acc;
      },
      SliceScan{});
  std::vector<size_t> candidates = std::move(prefix);
  const size_t num_prefix = candidates.size();
  candidates.insert(candidates.end(), merged.window.begin(),
                    merged.window.end());
  tests += merged.tests;

  // Phase 2: the serial append-only scan over the candidates. Prefix
  // members are already exactly filtered (phase 0) and later candidates
  // were checked against them (phase 1), so each candidate only scans
  // the *kept non-prefix* candidates before it.
  std::vector<uint8_t> keep(candidates.size(), 1);
  std::vector<size_t> kept_middle;  // kept candidates past the prefix
  for (size_t c = num_prefix; c < candidates.size(); ++c) {
    const double* candidate = row_of(candidates[c]);
    for (size_t w : kept_middle) {
      ++tests;
      if (compiled.Compare(row_of(w), candidate) == Comparison::kBetter) {
        keep[c] = 0;
        break;
      }
    }
    if (keep[c]) kept_middle.push_back(candidates[c]);
  }

  // Emit window and survivors in the original presorted order — exactly
  // the serial append-only scan's state.
  std::vector<size_t> window;
  std::vector<size_t> survivors;
  survivors.reserve(n);
  size_t c = 0;
  for (size_t k = 0; k < n; ++k) {
    if (c < candidates.size() && candidates[c] == k) {
      if (keep[c]) {
        window.push_back(order_[k]);
      } else {
        survivors.push_back(order_[k]);
      }
      ++c;
    } else {
      survivors.push_back(order_[k]);
    }
  }
  order_ = std::move(survivors);
  dominance_tests_ += tests;
  return window;
}

std::vector<size_t> SkylinePeeler::Next() {
  if (order_.empty()) return {};
  SKYEX_PROF_PHASE(::skyex::prof::Phase::kSkyline);
  const obs::Stopwatch layer_watch;

  std::vector<size_t> window;
  if (presorted_ && order_.size() >= kParallelMinRows &&
      par::ThreadPool::Global().threads() > 1) {
    window = PeelPresortedParallel();
  } else {
    // Block-nested-loop pass: `window` accumulates the current skyline,
    // `survivors` the dominated rows that stay for later layers.
    std::vector<size_t> survivors;
    survivors.reserve(order_.size());
    for (size_t row : order_) {
      bool dominated = false;
      for (size_t w = 0; w < window.size();) {
        const Comparison c = CompareRows(window[w], row);
        if (c == Comparison::kBetter) {
          dominated = true;
          break;
        }
        if (c == Comparison::kWorse) {
          // Only possible without presorting: the new row evicts a window
          // member, which stays around for the next layer.
          survivors.push_back(window[w]);
          window[w] = window.back();
          window.pop_back();
          continue;
        }
        ++w;
      }
      if (dominated) {
        survivors.push_back(row);
      } else {
        window.push_back(row);
      }
    }
    order_ = std::move(survivors);  // presorted order is preserved
  }

  ++layers_peeled_;
  SKYEX_COUNTER_INC("skyline/layers_peeled");
  SKYEX_HISTOGRAM_OBSERVE_US("skyline/peel_layer_us",
                             layer_watch.ElapsedMicros());
  return window;
}

SkylineLayers ComputeSkylineLayers(const ml::FeatureMatrix& matrix,
                                   const std::vector<size_t>& rows,
                                   const Preference& preference) {
  SkylineLayers result;
  result.layer.assign(rows.size(), 0);

  // Dense row-id -> input-position index. Row ids index the matrix, so
  // a flat vector replaces the per-call hash map this used to build.
  std::vector<size_t> position_of(matrix.rows, kNoPosition);
  for (size_t k = 0; k < rows.size(); ++k) position_of[rows[k]] = k;

  SkylinePeeler peeler(matrix, rows, preference);
  for (;;) {
    const std::vector<size_t> skyline = peeler.Next();
    if (skyline.empty()) break;
    result.max_layer = peeler.layers_peeled();
    result.layer_counts.push_back(skyline.size());
    for (size_t row : skyline) {
      result.layer[position_of[row]] = result.max_layer;
    }
  }
  return result;
}

}  // namespace skyex::skyline
