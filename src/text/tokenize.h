#ifndef SKYEX_TEXT_TOKENIZE_H_
#define SKYEX_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace skyex::text {

/// Splits a string on whitespace into tokens. The input is expected to be
/// normalized (see Normalize); no further cleaning is performed.
std::vector<std::string> Tokenize(std::string_view input);

/// Splits `input` on whitespace into views over `input` (no allocation
/// beyond `out` growth). Same token boundaries as Tokenize().
void TokenizeViews(std::string_view input, std::vector<std::string_view>* out);

/// Returns the tokens of `input` sorted alphanumerically and re-joined with
/// single spaces. This is the "custom sorting" LGM-Sim applies before
/// computing the sorted similarity variants.
std::string SortTokens(std::string_view input);

/// Joins tokens with single spaces.
std::string JoinTokens(const std::vector<std::string>& tokens);

}  // namespace skyex::text

#endif  // SKYEX_TEXT_TOKENIZE_H_
