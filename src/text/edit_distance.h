#ifndef SKYEX_TEXT_EDIT_DISTANCE_H_
#define SKYEX_TEXT_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace skyex::text {

/// Classic Levenshtein edit distance (insert / delete / substitute).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Damerau-Levenshtein distance in the common "optimal string alignment"
/// variant: adds transposition of adjacent characters, with the restriction
/// that no substring is edited more than once.
size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(|a|, |b|), in [0, 1]. Two empty strings → 1.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Normalized Damerau-Levenshtein similarity, same convention as above.
double DamerauLevenshteinSimilarity(std::string_view a, std::string_view b);

}  // namespace skyex::text

#endif  // SKYEX_TEXT_EDIT_DISTANCE_H_
