#include "lgm/lgm_sim.h"

#include <algorithm>
#include <utility>

#include "text/normalize.h"
#include "text/tokenize.h"

namespace skyex::lgm {

LgmSim::LgmSim(FrequentTermDictionary dictionary, LgmSimConfig config)
    : dictionary_(std::move(dictionary)), config_(config) {}

void LgmSim::Split(std::string_view na, std::string_view na_sorted,
                   std::string_view nb, std::string_view nb_sorted,
                   PairSplit* split) const {
  split->Assign(na, na_sorted, nb, nb_sorted, dictionary_);
}

PairSplit::Joined LgmSim::MatchSplit(PairSplit* split,
                                     text::SimilarityFn base_fn,
                                     double raw) const {
  // The custom sorting decision: hard-to-align strings are term-sorted
  // before splitting, which stabilizes the greedy matching.
  return split->Match(raw < config_.sort_threshold, base_fn,
                      config_.match_threshold);
}

double LgmSim::ScoreSplit(PairSplit* split, text::SimilarityFn base_fn,
                          double raw) const {
  const PairSplit::Joined lists = MatchSplit(split, base_fn, raw);

  // Score each list pair. A pair that is empty on both sides carries no
  // information: it is excluded and its weight redistributed over the
  // remaining lists (as in the reference LGM-Sim implementation). A pair
  // with terms on exactly one side scores 0 — extra unmatched terms count
  // against the match.
  double active_weight = 0.0;
  double weighted_score = 0.0;
  const auto add_list = [&](std::string_view la, std::string_view lb,
                            double weight) {
    if (la.empty() && lb.empty()) return;
    const double score = la.empty() || lb.empty() ? 0.0 : base_fn(la, lb);
    active_weight += weight;
    weighted_score += weight * score;
  };
  add_list(lists.base_a, lists.base_b, config_.base_weight);
  add_list(lists.mismatch_a, lists.mismatch_b, config_.mismatch_weight);
  add_list(lists.frequent_a, lists.frequent_b, config_.frequent_weight);
  if (active_weight <= 0.0) {
    // Both strings were empty after normalization.
    return 1.0;
  }
  return weighted_score / active_weight;
}

ListScores LgmSim::IndividualScoresSplit(PairSplit* split,
                                         text::SimilarityFn base_fn,
                                         double raw) const {
  const PairSplit::Joined lists = MatchSplit(split, base_fn, raw);
  ListScores scores;
  scores.base = base_fn(lists.base_a, lists.base_b);
  scores.mismatch = base_fn(lists.mismatch_a, lists.mismatch_b);
  scores.frequent = base_fn(lists.frequent_a, lists.frequent_b);
  return scores;
}

double LgmSim::ScoreNormalized(std::string_view na, std::string_view nb,
                               text::SimilarityFn base_fn) const {
  const std::string sa = text::SortTokens(na);
  const std::string sb = text::SortTokens(nb);
  PairSplit split;
  Split(na, sa, nb, sb, &split);
  return ScoreSplit(&split, base_fn, base_fn(na, nb));
}

ListScores LgmSim::IndividualScoresNormalized(
    std::string_view na, std::string_view nb,
    text::SimilarityFn base_fn) const {
  const std::string sa = text::SortTokens(na);
  const std::string sb = text::SortTokens(nb);
  PairSplit split;
  Split(na, sa, nb, sb, &split);
  return IndividualScoresSplit(&split, base_fn, base_fn(na, nb));
}

ListScores LgmSim::IndividualScores(std::string_view a, std::string_view b,
                                    text::SimilarityFn base_fn) const {
  return IndividualScoresNormalized(text::Normalize(a), text::Normalize(b),
                                    base_fn);
}

double LgmSim::Score(std::string_view a, std::string_view b,
                     text::SimilarityFn base_fn) const {
  return ScoreNormalized(text::Normalize(a), text::Normalize(b), base_fn);
}

double LgmSim::CustomSortedScore(std::string_view a, std::string_view b,
                                 text::SimilarityFn base_fn) const {
  const std::string na = text::Normalize(a);
  const std::string nb = text::Normalize(b);
  const double raw = base_fn(na, nb);
  if (raw >= config_.sort_threshold) return raw;
  return std::max(raw,
                  base_fn(text::SortTokens(na), text::SortTokens(nb)));
}

}  // namespace skyex::lgm
