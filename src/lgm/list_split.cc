#include "lgm/list_split.h"

#include <algorithm>

#include "text/tokenize.h"

namespace skyex::lgm {

namespace {

// Appends one term to a space-joined list (text::JoinTokens layout).
void AppendTerm(std::string* list, std::string_view term) {
  if (!list->empty()) list->push_back(' ');
  list->append(term);
}

}  // namespace

void PairSplit::Classify(std::string_view s,
                         const FrequentTermDictionary& dict, Terms* out) {
  text::TokenizeViews(s, &tokens_);
  out->significant.clear();
  out->frequent.clear();
  for (std::string_view t : tokens_) {
    if (dict.Contains(t)) {
      AppendTerm(&out->frequent, t);
    } else {
      out->significant.push_back(t);
    }
  }
}

void PairSplit::Assign(std::string_view a, std::string_view a_sorted,
                       std::string_view b, std::string_view b_sorted,
                       const FrequentTermDictionary& dict) {
  Classify(a, dict, &terms_[0][0]);
  Classify(b, dict, &terms_[0][1]);
  Classify(a_sorted, dict, &terms_[1][0]);
  Classify(b_sorted, dict, &terms_[1][1]);
}

PairSplit::Joined PairSplit::Match(bool sorted, text::SimilarityFn token_sim,
                                   double match_threshold) {
  const Terms& a = terms_[sorted ? 1 : 0][0];
  const Terms& b = terms_[sorted ? 1 : 0][1];

  // Greedy best-first matching of the significant tokens.
  candidates_.clear();
  for (uint32_t i = 0; i < a.significant.size(); ++i) {
    for (uint32_t j = 0; j < b.significant.size(); ++j) {
      const double sim = token_sim(a.significant[i], b.significant[j]);
      if (sim >= match_threshold) candidates_.push_back({sim, i, j});
    }
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              if (x.i != y.i) return x.i < y.i;
              return x.j < y.j;
            });
  used_a_.assign(a.significant.size(), 0);
  used_b_.assign(b.significant.size(), 0);
  base_a_.clear();
  base_b_.clear();
  for (const Candidate& c : candidates_) {
    if (used_a_[c.i] || used_b_[c.j]) continue;
    used_a_[c.i] = 1;
    used_b_[c.j] = 1;
    AppendTerm(&base_a_, a.significant[c.i]);
    AppendTerm(&base_b_, b.significant[c.j]);
  }
  mismatch_a_.clear();
  mismatch_b_.clear();
  for (size_t i = 0; i < a.significant.size(); ++i) {
    if (!used_a_[i]) AppendTerm(&mismatch_a_, a.significant[i]);
  }
  for (size_t j = 0; j < b.significant.size(); ++j) {
    if (!used_b_[j]) AppendTerm(&mismatch_b_, b.significant[j]);
  }
  return {base_a_, base_b_, mismatch_a_, mismatch_b_, a.frequent, b.frequent};
}

TermLists SplitTermLists(const std::string& a, const std::string& b,
                         const FrequentTermDictionary& dict,
                         text::SimilarityFn token_sim,
                         double match_threshold) {
  // No custom sorting here, so the sorted slots are never matched.
  PairSplit split;
  split.Assign(a, a, b, b, dict);
  const PairSplit::Joined joined =
      split.Match(/*sorted=*/false, token_sim, match_threshold);
  // Terms hold no whitespace, so re-tokenizing a joined list recovers it.
  TermLists lists;
  lists.base_a = text::Tokenize(joined.base_a);
  lists.base_b = text::Tokenize(joined.base_b);
  lists.mismatch_a = text::Tokenize(joined.mismatch_a);
  lists.mismatch_b = text::Tokenize(joined.mismatch_b);
  lists.frequent_a = text::Tokenize(joined.frequent_a);
  lists.frequent_b = text::Tokenize(joined.frequent_b);
  return lists;
}

}  // namespace skyex::lgm
