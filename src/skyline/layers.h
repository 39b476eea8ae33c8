#ifndef SKYEX_SKYLINE_LAYERS_H_
#define SKYEX_SKYLINE_LAYERS_H_

#include <cstdint>
#include <vector>

#include "ml/dataset_view.h"
#include "skyline/preference.h"

namespace skyex::skyline {

/// Iteratively peels skylines off a set of rows: Next() returns the
/// current set of maximal rows under the preference (Skyline(k) of
/// Definition 4.2), removes them, and advances to Skyline(k+1).
///
/// The peeler is incremental so that callers implement their own stop
/// conditions — Algorithm 1 sweeps the cut-off over all skylines of the
/// training set, Algorithm 2 stops once c_t·|P| rows are ranked, and the
/// oracle cut-off search stops when every positive pair is ranked.
///
/// Implementation: block-nested-loop peeling. When the preference
/// compiles to the canonical priority-of-Pareto-groups form, rows are
/// pre-sorted in a dominance-compatible order (group sums, each tie
/// broken by that group's terms; CompiledPreference::PresortCompare),
/// which makes each pass a pure window scan (a row can only be
/// dominated by rows sorted before it). General preference trees fall
/// back to full BNL with window eviction.
///
/// Large presorted layers peel in parallel on the shared thread pool:
/// partition-local windows over contiguous slices of the sort order are
/// merged into the exact global skyline (skylines are unique, so the
/// output is bit-identical to the serial scan at any thread count; see
/// docs/parallelism.md for the argument). `--threads=1` bypasses the
/// pool entirely.
class SkylinePeeler {
 public:
  /// `rows` are row indices into `matrix`; the peeler ranks only those.
  SkylinePeeler(const ml::FeatureMatrix& matrix, std::vector<size_t> rows,
                const Preference& preference);

  /// Flushes the dominance-test count to the metrics registry
  /// (`skyline/dominance_tests`).
  ~SkylinePeeler();

  SkylinePeeler(const SkylinePeeler&) = delete;
  SkylinePeeler& operator=(const SkylinePeeler&) = delete;

  /// The next skyline's row indices (into the matrix); empty when all
  /// rows have been ranked.
  std::vector<size_t> Next();

  /// Rows not yet ranked.
  size_t remaining() const { return order_.size(); }
  /// Number of skylines peeled so far.
  uint32_t layers_peeled() const { return layers_peeled_; }
  /// Dominance comparisons performed so far (this peeler only).
  uint64_t dominance_tests() const { return dominance_tests_; }

 private:
  Comparison CompareRows(size_t a, size_t b) const;
  /// Exact parallel peel of a large presorted layer (pool-backed).
  std::vector<size_t> PeelPresortedParallel();

  const ml::FeatureMatrix& matrix_;
  const Preference& preference_;
  std::optional<CompiledPreference> compiled_;
  bool presorted_ = false;
  std::vector<size_t> order_;  // remaining rows, presorted when possible
  uint32_t layers_peeled_ = 0;
  // Local (non-atomic) tally flushed to the registry on destruction so
  // the hot comparison loop never touches shared state.
  mutable uint64_t dominance_tests_ = 0;
};

/// Full layer assignment: layer[i] is the 1-based skyline level of
/// rows[i]. Convenience wrapper over SkylinePeeler.
struct SkylineLayers {
  std::vector<uint32_t> layer;        // parallel to the input rows
  uint32_t max_layer = 0;
  std::vector<size_t> layer_counts;   // layer_counts[k-1] = |Skyline(k)|
};

SkylineLayers ComputeSkylineLayers(const ml::FeatureMatrix& matrix,
                                   const std::vector<size_t>& rows,
                                   const Preference& preference);

}  // namespace skyex::skyline

#endif  // SKYEX_SKYLINE_LAYERS_H_
