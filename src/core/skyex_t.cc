#include "core/skyex_t.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "ml/elbow.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace skyex::core {

CutoffSweep SweepCutoffOverSkylines(const ml::FeatureMatrix& matrix,
                                    const std::vector<size_t>& rows,
                                    const std::vector<uint8_t>& labels,
                                    const skyline::Preference& preference,
                                    double tie_tolerance) {
  SKYEX_SPAN("skyline/sweep_cutoff");
  CutoffSweep sweep;
  size_t total_pos = 0;
  for (size_t r : rows) total_pos += labels[r];
  sweep.total_positives = total_pos;

  skyline::SkylinePeeler peeler(matrix, rows, preference);
  size_t cum_count = 0;
  size_t cum_tp = 0;
  for (;;) {
    const std::vector<size_t> skyline = peeler.Next();
    if (skyline.empty()) break;
    cum_count += skyline.size();
    for (size_t r : skyline) cum_tp += labels[r];
    // F1 of labeling skylines 1..k positive:
    // precision = tp/cum_count, recall = tp/total_pos
    // → F1 = 2·tp / (cum_count + total_pos).
    const double f1 =
        (cum_count + total_pos) == 0
            ? 0.0
            : 2.0 * static_cast<double>(cum_tp) /
                  static_cast<double>(cum_count + total_pos);
    sweep.f1_per_layer.push_back(f1);
    if (f1 * tie_tolerance > sweep.best_f1) {
      sweep.best_f1 = f1;
      sweep.best_layer = peeler.layers_peeled();
      sweep.best_cumulative = cum_count;
      sweep.best_tp = cum_tp;
    }
    // Once every positive is ranked, deeper cut-offs strictly lower F1
    // (tp is fixed while the predicted-positive count grows).
    if (cum_tp == total_pos) break;
  }
  if (sweep.best_layer == 0 && !sweep.f1_per_layer.empty()) {
    // No positives at all: fall back to the first skyline.
    sweep.best_layer = 1;
    sweep.best_cumulative = std::min(rows.size(), static_cast<size_t>(1));
  }
  return sweep;
}

std::string SkyExTModel::Describe(
    const std::vector<std::string>& feature_names) const {
  if (preference == nullptr) return "<untrained>";
  std::string out = "p = " + preference->ToString(feature_names);
  out += "\nc_t = " + std::to_string(cutoff_ratio);
  return out;
}

std::optional<ProjectedModel> ProjectModel(const SkyExTModel& model,
                                           size_t schema_width,
                                           std::string* error) {
  if (model.preference == nullptr) {
    if (error != nullptr) *error = "model has no preference";
    return std::nullopt;
  }
  ProjectedModel out;
  model.preference->CollectFeatures(&out.columns);
  for (size_t feature : out.columns) {
    if (feature >= schema_width) {
      if (error != nullptr) {
        *error = "model references feature index " + std::to_string(feature) +
                 " but the LGM-X schema has " + std::to_string(schema_width) +
                 " features";
      }
      return std::nullopt;
    }
  }
  std::sort(out.columns.begin(), out.columns.end());
  out.columns.erase(std::unique(out.columns.begin(), out.columns.end()),
                    out.columns.end());
  std::vector<size_t> position(schema_width, 0);
  for (size_t k = 0; k < out.columns.size(); ++k) {
    position[out.columns[k]] = k;
  }
  out.model.preference = model.preference->RemapFeatures(position);
  out.model.cutoff_ratio = model.cutoff_ratio;
  out.model.train_f1 = model.train_f1;
  return out;
}

SkyExT::SkyExT(SkyExTOptions options) : options_(options) {}

std::vector<size_t> SkyExT::MiRows(
    const std::vector<size_t>& train_rows,
    const std::vector<size_t>* unsupervised_rows) const {
  if (!options_.use_mi_dedup) return {};
  const std::vector<size_t>& rows =
      unsupervised_rows != nullptr ? *unsupervised_rows : train_rows;
  const size_t cap = options_.selection.max_mi_rows;
  if (cap == 0 || rows.size() <= cap) return rows;
  // Deterministic thinning keeps the subsample spread out.
  std::vector<size_t> thinned;
  const double stride =
      static_cast<double>(rows.size()) / static_cast<double>(cap);
  thinned.reserve(cap);
  for (size_t k = 0; k < cap; ++k) {
    thinned.push_back(rows[static_cast<size_t>(k * stride)]);
  }
  return thinned;
}

SkyExTModel SkyExT::Train(const ml::FeatureMatrix& matrix,
                          const std::vector<uint8_t>& labels,
                          const std::vector<size_t>& train_rows,
                          const std::vector<size_t>* unsupervised_rows)
    const {
  SKYEX_SPAN("core/train_skyext");
  SkyExTModel model;

  // Step 2 (Section 4.3.1): drop highly correlated features. This step
  // reads no labels, so it may run on more rows than the labeled sample.
  std::vector<size_t> columns;
  if (options_.use_mi_dedup) {
    columns = DeduplicateFeatures(
        matrix, MiRows(train_rows, unsupervised_rows), options_.selection);
  } else {
    columns.resize(matrix.cols);
    std::iota(columns.begin(), columns.end(), 0);
  }

  // Lines 1-3 of Algorithm 1: rank features by |ρ(X_i, C)|. Under the
  // similarity prior the ranking is by signed ρ: negative correlations
  // on similarity features are sampling noise, not low() preferences.
  std::vector<RankedFeature> ranked =
      RankByClassCorrelation(matrix, labels, train_rows, columns);
  if (options_.assume_high_directions) {
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedFeature& a, const RankedFeature& b) {
                if (a.rho != b.rho) return a.rho > b.rho;
                return a.column < b.column;
              });
  }
  // Features with negligible correlation never enter the preference.
  while (ranked.size() > 1 &&
         (options_.assume_high_directions
              ? ranked.back().rho
              : std::abs(ranked.back().rho)) <
             options_.min_abs_correlation) {
    ranked.pop_back();
  }

  // Line 4: find the elbows ε₁ and ε₂ on the |ρ| curve.
  std::vector<double> curve;
  curve.reserve(ranked.size());
  for (const RankedFeature& f : ranked) curve.push_back(std::abs(f.rho));
  const ml::TwoElbows elbows = ml::FindTwoElbows(curve);

  size_t group1_end = std::min(elbows.first + 1, ranked.size());
  size_t group2_end = std::min(elbows.second + 1, ranked.size());
  if (options_.max_features_per_group > 0) {
    group1_end = std::min(group1_end, options_.max_features_per_group);
    group2_end = std::min(group2_end,
                          group1_end + options_.max_features_per_group);
  }
  model.group1.assign(ranked.begin(),
                      ranked.begin() + static_cast<ptrdiff_t>(group1_end));
  model.group2.assign(ranked.begin() + static_cast<ptrdiff_t>(group1_end),
                      ranked.begin() + static_cast<ptrdiff_t>(group2_end));
  if (!options_.use_priority) model.group2.clear();

  // Lines 5-11: connect each group with the Pareto operator, prioritize
  // group 1 over group 2. The preferred direction follows the sign of ρ.
  const bool assume_high = options_.assume_high_directions;
  const auto group_preference = [assume_high](
                                    const std::vector<RankedFeature>& group) {
    std::vector<std::unique_ptr<skyline::Preference>> leaves;
    leaves.reserve(group.size());
    for (const RankedFeature& f : group) {
      leaves.push_back(f.rho >= 0.0 || assume_high
                           ? skyline::High(f.column)
                           : skyline::Low(f.column));
    }
    return skyline::ParetoOf(std::move(leaves));
  };
  if (model.group2.empty()) {
    model.preference = group_preference(model.group1);
  } else {
    std::vector<std::unique_ptr<skyline::Preference>> parts;
    parts.push_back(group_preference(model.group1));
    parts.push_back(group_preference(model.group2));
    model.preference = skyline::PriorityOf(std::move(parts));
  }

  // Lines 12-22: rank the training set, sweep the cut-off, express it as
  // a data ratio (Lemma 1). When enabled, the ratio is the median over
  // several subsamples, which de-noises the argmax of the flat F1 curve.
  std::vector<double> ratios;
  std::vector<double> f1s;
  const bool resample =
      options_.cutoff_resamples > 1 &&
      train_rows.size() >= options_.cutoff_resample_min_rows &&
      train_rows.size() <= options_.cutoff_resample_max_rows;
  if (resample) {
    std::mt19937_64 rng(train_rows.size() * 2654435761u + 17);
    std::vector<size_t> shuffled = train_rows;
    const size_t subsample = (train_rows.size() * 7) / 10;
    for (size_t b = 0; b < options_.cutoff_resamples; ++b) {
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      const std::vector<size_t> rows(shuffled.begin(),
                                     shuffled.begin() +
                                         static_cast<ptrdiff_t>(subsample));
      const CutoffSweep sweep = SweepCutoffOverSkylines(
          matrix, rows, labels, *model.preference, /*tie_tolerance=*/0.985);
      ratios.push_back(static_cast<double>(sweep.best_cumulative) /
                       static_cast<double>(rows.size()));
      f1s.push_back(sweep.best_f1);
    }
  } else {
    const CutoffSweep sweep = SweepCutoffOverSkylines(
        matrix, train_rows, labels, *model.preference,
        /*tie_tolerance=*/0.985);
    ratios.push_back(train_rows.empty()
                         ? 0.0
                         : static_cast<double>(sweep.best_cumulative) /
                               static_cast<double>(train_rows.size()));
    f1s.push_back(sweep.best_f1);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  model.cutoff_ratio = median(ratios);
  model.train_f1 = median(f1s);
  if (options_.cutoff_rate_cap > 0.0 && !train_rows.empty()) {
    size_t positives = 0;
    for (size_t r : train_rows) positives += labels[r];
    const double rate = static_cast<double>(positives) /
                        static_cast<double>(train_rows.size());
    if (rate > 0.0) {
      model.cutoff_ratio = std::min(model.cutoff_ratio,
                                    options_.cutoff_rate_cap * rate);
    }
  }
  SKYEX_COUNTER_INC("core/models_trained");
  SKYEX_GAUGE_SET("core/cutoff_ratio", model.cutoff_ratio);
  return model;
}

std::vector<uint8_t> SkyExT::Label(const ml::FeatureMatrix& matrix,
                                   const std::vector<size_t>& rows,
                                   const SkyExTModel& model) {
  SKYEX_SPAN("core/label_pairs");
  std::vector<uint8_t> labels(rows.size(), 0);
  if (model.preference == nullptr || rows.empty()) return labels;

  // Dense row-id → position index; row ids are bounded by matrix.rows,
  // so a flat vector beats hashing on the hot labeling path.
  std::vector<size_t> position_of(matrix.rows, static_cast<size_t>(-1));
  for (size_t k = 0; k < rows.size(); ++k) position_of[rows[k]] = k;

  const size_t target = static_cast<size_t>(
      std::ceil(model.cutoff_ratio * static_cast<double>(rows.size())));

  size_t ranked = 0;
  {
    SKYEX_SPAN("skyline/rank_layers");
    skyline::SkylinePeeler peeler(matrix, rows, *model.preference);
    while (ranked < target) {
      const std::vector<size_t> skyline = peeler.Next();
      if (skyline.empty()) break;
      ranked += skyline.size();
      for (size_t r : skyline) labels[position_of[r]] = 1;
    }
  }
  SKYEX_COUNTER_ADD("core/pairs_labeled_positive", ranked);
  return labels;
}

}  // namespace skyex::core
