#ifndef SKYEX_TEXT_JARO_H_
#define SKYEX_TEXT_JARO_H_

#include <string_view>

namespace skyex::text {

/// Jaro similarity in [0, 1]. Two empty strings → 1.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with the standard prefix scale 0.1, prefix
/// length cap 4 and boost threshold 0.7: a Jaro score below 0.7 is
/// returned unboosted.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler computed on the reversed strings — rewards common suffixes
/// instead of common prefixes.
double ReversedJaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler after alphanumeric token sorting of both strings.
double SortedJaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Maximum Jaro-Winkler over the token permutations of `a` (capped at
/// `max_tokens` tokens; beyond the cap it falls back to the sorted
/// variant, like the reference implementation of Santos et al.).
double PermutedJaroWinklerSimilarity(std::string_view a, std::string_view b,
                                     size_t max_tokens = 6);

}  // namespace skyex::text

#endif  // SKYEX_TEXT_JARO_H_
