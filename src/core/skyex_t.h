#ifndef SKYEX_CORE_SKYEX_T_H_
#define SKYEX_CORE_SKYEX_T_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/feature_selection.h"
#include "ml/dataset_view.h"
#include "skyline/layers.h"
#include "skyline/preference.h"

namespace skyex::core {

/// Result of sweeping the class cut-off over skyline levels: the level
/// (and cumulative pair count) where the F-measure of "first k skylines
/// = positive" peaks.
struct CutoffSweep {
  double best_f1 = 0.0;
  uint32_t best_layer = 0;
  size_t best_cumulative = 0;      // pairs in skylines 1..best_layer
  size_t best_tp = 0;              // positives among those pairs
  size_t total_positives = 0;
  std::vector<double> f1_per_layer;

  double Precision() const {
    return best_cumulative == 0
               ? 0.0
               : static_cast<double>(best_tp) / best_cumulative;
  }
  double Recall() const {
    return total_positives == 0
               ? 0.0
               : static_cast<double>(best_tp) / total_positives;
  }

  /// The swept layers cover all positives; later layers can only lower
  /// F1, so the sweep stops there (an exact shortcut, not a heuristic).
};

/// Ranks `rows` into skylines under `preference` and sweeps the cut-off,
/// maximizing F1 against `labels`. Used by SkyEx-T training (line 21 of
/// Algorithm 1), by SkyEx-F, and by the oracle cut-off c* of the
/// evaluation.
/// `tie_tolerance` < 1 breaks near-ties on the flat F1-vs-layer curve
/// toward the earlier (smaller, more precise) cut-off: a new layer only
/// displaces the incumbent when f1·tie_tolerance exceeds it. Training
/// uses 0.985 to de-noise the argmax on tiny samples; the oracle c*
/// search uses the strict 1.0 default.
CutoffSweep SweepCutoffOverSkylines(const ml::FeatureMatrix& matrix,
                                    const std::vector<size_t>& rows,
                                    const std::vector<uint8_t>& labels,
                                    const skyline::Preference& preference,
                                    double tie_tolerance = 1.0);

/// Options of SkyEx-T.
struct SkyExTOptions {
  FeatureSelectionOptions selection;
  /// Features with |ρ| below this never enter the preference function.
  double min_abs_correlation = 0.05;
  /// Cap per preference group (0 = uncapped). Large Pareto blocks make
  /// almost every pair incomparable and the skylines uninformative; the
  /// paper's learned preferences use 3-4 features per group, so a small
  /// cap keeps the elbow-selected groups in that regime.
  size_t max_features_per_group = 5;
  /// Domain prior: LGM-X features are similarities, so the preferred
  /// direction is high() for all of them. When set, features are ranked
  /// by signed ρ (a negative ρ on a similarity feature is sampling
  /// noise) instead of |ρ| with sign-derived directions. Disable for
  /// the literal Algorithm 1 or for feature sets with genuine low()
  /// directions (e.g. raw distances).
  bool assume_high_directions = true;

  /// Ablations: disable the second (prioritized) group / the MI step.
  bool use_priority = true;
  bool use_mi_dedup = true;

  /// Cut-off stabilization (a robustness refinement over the literal
  /// Algorithm 1): the F1-vs-layer argmax on a small sample sometimes
  /// overshoots far past the precision=recall point — which is exactly
  /// the training positive rate, a far more stable statistic. When this
  /// multiplier is > 0, c_t is capped at multiplier·positive_rate.
  /// Set to 0 to disable.
  double cutoff_rate_cap = 1.0;

  /// Optional second stabilizer: when > 1 and the training set is in
  /// [min, max] rows, c_t is the median over this many 70% subsamples.
  /// Off by default (subsampling biases the ratio upward on coarse
  /// skylines).
  size_t cutoff_resamples = 1;
  size_t cutoff_resample_min_rows = 60;
  size_t cutoff_resample_max_rows = 30000;
};

/// A trained SkyEx-T model: the preference function p and cut-off ratio
/// c_t of Algorithm 1, plus the ranked feature groups for explanation.
struct SkyExTModel {
  std::unique_ptr<skyline::Preference> preference;
  double cutoff_ratio = 0.0;  // c_t ∈ (0, 1]
  std::vector<RankedFeature> group1;  // X_ε1, the prioritized block
  std::vector<RankedFeature> group2;  // X_ε2
  double train_f1 = 0.0;

  /// The human-readable preference function, e.g.
  /// "(high(name_lgm_base_score) Δ high(name_sim)) ▷ (...)"; the
  /// out-of-the-box explainability the paper emphasizes.
  std::string Describe(const std::vector<std::string>& feature_names) const;
};

/// A model applied to a matrix that holds only the LGM-X columns its
/// preference reads, such as one features::LgmXExtractor::PlanColumns
/// extracts from `columns`. Labelling that matrix with `model` gives the
/// same labels as labelling the full matrix with the original model: the
/// preference compares the same doubles in the same order.
struct ProjectedModel {
  std::vector<size_t> columns;  // schema columns read, ascending
  /// The original with its preference reading position k for schema
  /// column columns[k]. The explanatory groups stay empty.
  SkyExTModel model;
};

/// Projects `model` onto the columns its preference reads. Works for any
/// preference tree, compiled or not. nullopt + `error` when the model has
/// no preference or reads a feature index at or past `schema_width` (the
/// LGM-X schema's 88 columns, or the width of the rows at hand) — a
/// corrupt or mismatched model file, which would otherwise read past the
/// end of every feature row.
std::optional<ProjectedModel> ProjectModel(const SkyExTModel& model,
                                           size_t schema_width,
                                           std::string* error);

/// SkyEx-T (Skyline Explore - Trained), Section 4.3 of the paper.
class SkyExT {
 public:
  explicit SkyExT(SkyExTOptions options = {});

  /// Algorithm 1: learns the preference function and cut-off ratio from
  /// the labeled training rows.
  ///
  /// The MI de-duplication step is unsupervised (Step 2 of the paper's
  /// pipeline runs on the featured pairs before training); pass
  /// `unsupervised_rows` (e.g. all pairs) to run it on more data than
  /// the labeled sample — with tiny training sets this stabilizes the
  /// feature selection considerably. nullptr → use the training rows.
  SkyExTModel Train(const ml::FeatureMatrix& matrix,
                    const std::vector<uint8_t>& labels,
                    const std::vector<size_t>& train_rows,
                    const std::vector<size_t>* unsupervised_rows =
                        nullptr) const;

  /// Algorithm 2: ranks `rows` under the model's preference, peeling
  /// skylines until c_t·|rows| pairs are ranked, labels those positive
  /// and the rest negative. Returns labels parallel to `rows`.
  static std::vector<uint8_t> Label(const ml::FeatureMatrix& matrix,
                                    const std::vector<size_t>& rows,
                                    const SkyExTModel& model);

  const SkyExTOptions& options() const { return options_; }

 private:
  SkyExTOptions options_;
};

}  // namespace skyex::core

#endif  // SKYEX_CORE_SKYEX_T_H_
