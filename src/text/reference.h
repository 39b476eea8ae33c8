#ifndef SKYEX_TEXT_REFERENCE_H_
#define SKYEX_TEXT_REFERENCE_H_

#include <cstddef>
#include <string_view>

// Frozen scalar reference implementations of the string-similarity kernels.
//
// These are verbatim copies of the pre-optimization kernels: allocation-heavy,
// branchy, and obviously correct. They exist for two reasons:
//   1. The kernel-equivalence property tests pin the optimized (branch-light /
//      scratch-arena / SIMD) kernels bit-identical to these, at every dispatch
//      level. "Bit-identical" means exact double equality, not a tolerance.
//   2. `bench_snapshot.sh --extract` boots a server with
//      `--reference-kernels` so the "before" leg of BENCH_extract.json
//      measures the true pre-optimization extraction cost on the same build.
//
// Do not optimize anything in this namespace.

namespace skyex::text::reference {

double JaroSimilarity(std::string_view a, std::string_view b);
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1,
                             double boost_threshold = 0.7);
double ReversedJaroWinklerSimilarity(std::string_view a, std::string_view b);
double SortedJaroWinklerSimilarity(std::string_view a, std::string_view b);
double PermutedJaroWinklerSimilarity(std::string_view a, std::string_view b,
                                     size_t max_tokens = 6);

size_t LevenshteinDistance(std::string_view a, std::string_view b);
size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b);
double LevenshteinSimilarity(std::string_view a, std::string_view b);
double DamerauLevenshteinSimilarity(std::string_view a, std::string_view b);

double CosineNgramSimilarity(std::string_view a, std::string_view b,
                             size_t n = 2);
double JaccardNgramSimilarity(std::string_view a, std::string_view b,
                              size_t n = 2);
double DiceBigramSimilarity(std::string_view a, std::string_view b);
double SkipgramSimilarity(std::string_view a, std::string_view b);
double MongeElkanSimilarity(std::string_view a, std::string_view b);
double SoftJaccardSimilarity(std::string_view a, std::string_view b,
                             double threshold = 0.7);
double DaviesDeSallesSimilarity(std::string_view a, std::string_view b);

}  // namespace skyex::text::reference

#endif  // SKYEX_TEXT_REFERENCE_H_
