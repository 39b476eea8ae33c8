#ifndef SKYEX_TEXT_SIMILARITY_REGISTRY_H_
#define SKYEX_TEXT_SIMILARITY_REGISTRY_H_

#include <string_view>
#include <vector>

namespace skyex::text {

/// A string similarity function: two strings → score in [0, 1].
using SimilarityFn = double (*)(std::string_view, std::string_view);

/// A named similarity measure, used to build the LGM-X feature schema.
struct NamedSimilarity {
  std::string_view name;
  SimilarityFn fn;
};

/// The 14 "basic similarity" measures of the LGM-X feature group (i):
/// the 13 measures studied by Santos et al. for toponym matching plus the
/// plain Levenshtein similarity.
const std::vector<NamedSimilarity>& BasicSimilarities();

/// The 13 measures that get a token-sorted variant (feature group (ii))
/// and an LGM-Sim-based variant (group (iii)). SortedJaroWinkler is
/// excluded — its input is already sorted.
const std::vector<NamedSimilarity>& SortableSimilarities();

/// Looks up a basic measure by name; returns nullptr when unknown.
SimilarityFn FindSimilarity(std::string_view name);

/// Which kernel implementations the registry hands out. kOptimized is the
/// default (branch-light / scratch-arena / SIMD-dispatched); kReference is
/// the frozen pre-optimization scalar set (text/reference.h), used by the
/// equivalence tests and as the honest "before" leg of bench_snapshot.sh
/// --extract. The two produce bit-identical scores; only speed differs.
enum class KernelImpl : int {
  kOptimized = 0,
  kReference = 1,
};

/// Switches the registry between implementations (kOptimized until set).
/// Intended for startup / tests; not synchronized against concurrent
/// extraction.
void SetKernelImpl(KernelImpl impl);
KernelImpl ActiveKernelImpl();

}  // namespace skyex::text

#endif  // SKYEX_TEXT_SIMILARITY_REGISTRY_H_
