#include "text/tokenize.h"

#include <algorithm>

#include "text/char_class.h"

namespace skyex::text {

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string_view> views;
  TokenizeViews(input, &views);
  return {views.begin(), views.end()};
}

void TokenizeViews(std::string_view input,
                   std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() && IsSpace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    const size_t start = i;
    while (i < input.size() &&
           !IsSpace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) out->push_back(input.substr(start, i - start));
  }
}

std::string SortTokens(std::string_view input) {
  std::vector<std::string> tokens = Tokenize(input);
  std::sort(tokens.begin(), tokens.end());
  return JoinTokens(tokens);
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += tokens[i];
  }
  return out;
}

}  // namespace skyex::text
