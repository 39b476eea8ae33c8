#ifndef SKYEX_TEXT_TOKEN_SIMILARITY_H_
#define SKYEX_TEXT_TOKEN_SIMILARITY_H_

#include <string_view>

namespace skyex::text {

/// Cosine similarity over character bigram count vectors.
double CosineNgramSimilarity(std::string_view a, std::string_view b);

/// Multiset Jaccard similarity over character bigrams.
double JaccardNgramSimilarity(std::string_view a, std::string_view b);

/// Dice coefficient over character bigrams.
double DiceBigramSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity over skip-grams (skip up to 2 characters).
double SkipgramSimilarity(std::string_view a, std::string_view b);

/// Symmetric Monge-Elkan: for each token of one string, the best
/// Jaro-Winkler match in the other; averaged, then the two directions are
/// averaged.
double MongeElkanSimilarity(std::string_view a, std::string_view b);

/// Soft-Jaccard: tokens count as intersecting when their Jaro-Winkler
/// similarity reaches `threshold`; intersection weight is the sum of the
/// matched similarities.
double SoftJaccardSimilarity(std::string_view a, std::string_view b,
                             double threshold = 0.7);

/// The token alignment measure of Davis Jr. and Salles (2007), designed
/// for geographic and personal names: greedy best-pair token alignment
/// with Jaro-Winkler, abbreviation awareness (single-letter tokens match
/// token initials), length-weighted combination.
double DaviesDeSallesSimilarity(std::string_view a, std::string_view b);

}  // namespace skyex::text

#endif  // SKYEX_TEXT_TOKEN_SIMILARITY_H_
