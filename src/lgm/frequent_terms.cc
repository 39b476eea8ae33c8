#include "lgm/frequent_terms.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "text/tokenize.h"

namespace skyex::lgm {

FrequentTermDictionary FrequentTermDictionary::Build(
    const std::vector<std::string>& corpus, const Options& options) {
  std::unordered_map<std::string, size_t> counts;
  for (const std::string& s : corpus) {
    // Count each term once per string (document frequency).
    std::unordered_set<std::string> seen;
    for (std::string& t : text::Tokenize(s)) {
      if (t.size() < options.min_term_length) continue;
      if (seen.insert(t).second) ++counts[t];
    }
  }
  std::vector<std::pair<std::string, size_t>> ranked;
  ranked.reserve(counts.size());
  for (auto& [term, count] : counts) {
    if (count >= options.min_count) ranked.emplace_back(term, count);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > options.max_terms) ranked.resize(options.max_terms);

  FrequentTermDictionary dict;
  for (auto& [term, count] : ranked) dict.terms_.insert(term);
  return dict;
}

FrequentTermDictionary FrequentTermDictionary::FromTerms(
    std::vector<std::string> terms) {
  FrequentTermDictionary dict;
  for (std::string& t : terms) dict.terms_.insert(std::move(t));
  return dict;
}

bool FrequentTermDictionary::Contains(std::string_view term) const {
  return terms_.find(term) != terms_.end();
}

}  // namespace skyex::lgm
