#ifndef SKYEX_LGM_LGM_SIM_H_
#define SKYEX_LGM_LGM_SIM_H_

#include <string>
#include <string_view>

#include "lgm/frequent_terms.h"
#include "lgm/list_split.h"
#include "text/similarity_registry.h"

namespace skyex::lgm {

/// Parameters of the LGM-Sim meta-similarity. The defaults are the
/// weights learned on the Geonames toponym corpus in Giannopoulos et al.
/// (base-list dominant); the paper reuses them "as is" — a transfer-
/// learning setup — and so do we. `weight_search.h` can re-learn them.
struct LgmSimConfig {
  /// Weight of the base-list similarity.
  double base_weight = 0.7;
  /// Weight of the mismatch-list similarity.
  double mismatch_weight = 0.2;
  /// Weight of the frequent-list similarity.
  double frequent_weight = 0.1;
  /// Per-token similarity needed for two terms to "loosely match" into
  /// the base lists.
  double match_threshold = 0.55;
  /// The custom sorting step sorts both strings' terms alphanumerically
  /// when the raw baseline similarity falls below this value.
  double sort_threshold = 0.55;
};

/// The per-list scores LGM-Sim computes before weighting — exposed
/// because LGM-X uses them as the "individual similarity score" features.
struct ListScores {
  double base = 0.0;
  double mismatch = 0.0;
  double frequent = 0.0;
};

/// The LGM-Sim meta-similarity: a series of processing and matching steps
/// applied on top of any baseline similarity function.
///
/// Pipeline (Section 4.2.1 of the paper): normalize → optional
/// alphanumeric term sorting → split into base/mismatch/frequent term
/// lists → score each list pair with the baseline function → weighted
/// ensemble.
class LgmSim {
 public:
  LgmSim(FrequentTermDictionary dictionary, LgmSimConfig config = {});

  /// The meta-similarity score in [0, 1] on top of `base_fn`.
  /// Inputs need not be normalized; normalization is applied internally.
  double Score(std::string_view a, std::string_view b,
               text::SimilarityFn base_fn) const;

  /// The three individual list scores (computed with `base_fn`).
  ListScores IndividualScores(std::string_view a, std::string_view b,
                              text::SimilarityFn base_fn) const;

  /// The "custom sorting" decision applied to a similarity measure: when
  /// the raw score is below the sort threshold, the measure is re-run on
  /// term-sorted strings and the better score is kept.
  double CustomSortedScore(std::string_view a, std::string_view b,
                           text::SimilarityFn base_fn) const;

  /// Variants that skip normalization — the caller passes strings already
  /// run through text::Normalize.
  double ScoreNormalized(std::string_view na, std::string_view nb,
                         text::SimilarityFn base_fn) const;
  ListScores IndividualScoresNormalized(std::string_view na,
                                        std::string_view nb,
                                        text::SimilarityFn base_fn) const;

  /// Splits a normalized pair once for any number of measures (see
  /// PairSplit::Assign); the wrappers above split per call.
  void Split(std::string_view na, std::string_view na_sorted,
             std::string_view nb, std::string_view nb_sorted,
             PairSplit* split) const;

  /// Score / IndividualScores over a pair split by Split(). `raw` is
  /// base_fn(na, nb), which the feature extractor already holds; it takes
  /// the custom-sorting decision.
  double ScoreSplit(PairSplit* split, text::SimilarityFn base_fn,
                    double raw) const;
  ListScores IndividualScoresSplit(PairSplit* split,
                                   text::SimilarityFn base_fn,
                                   double raw) const;

  const LgmSimConfig& config() const { return config_; }
  const FrequentTermDictionary& dictionary() const { return dictionary_; }

 private:
  PairSplit::Joined MatchSplit(PairSplit* split, text::SimilarityFn base_fn,
                               double raw) const;

  FrequentTermDictionary dictionary_;
  LgmSimConfig config_;
};

}  // namespace skyex::lgm

#endif  // SKYEX_LGM_LGM_SIM_H_
