#include "core/feature_selection.h"

#include <algorithm>
#include <cmath>

#include "ml/statistics.h"

namespace skyex::core {

std::vector<size_t> DeduplicateFeatures(
    const ml::FeatureMatrix& matrix, const std::vector<size_t>& rows,
    const FeatureSelectionOptions& options) {
  const size_t cols = matrix.cols;
  // max(NMI, |Pearson|); see FeatureSelectionOptions::mi_threshold.
  const std::vector<std::vector<double>> mi =
      ml::PairwiseRedundancy(matrix, rows, options.mi_bins);

  std::vector<bool> alive(cols, true);
  for (;;) {
    // Find the most correlated surviving pair above the threshold.
    double best = options.mi_threshold;
    int best_a = -1;
    int best_b = -1;
    for (size_t a = 0; a < cols; ++a) {
      if (!alive[a]) continue;
      for (size_t b = a + 1; b < cols; ++b) {
        if (!alive[b]) continue;
        if (mi[a][b] >= best) {
          best = mi[a][b];
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
        }
      }
    }
    if (best_a < 0) break;

    // Drop the member with the larger mean correlation overall.
    const auto mean_mi = [&](size_t f) {
      double total = 0.0;
      size_t count = 0;
      for (size_t other = 0; other < cols; ++other) {
        if (other == f || !alive[other]) continue;
        total += mi[f][other];
        ++count;
      }
      return count == 0 ? 0.0 : total / static_cast<double>(count);
    };
    const size_t drop = mean_mi(static_cast<size_t>(best_a)) >=
                                mean_mi(static_cast<size_t>(best_b))
                            ? static_cast<size_t>(best_a)
                            : static_cast<size_t>(best_b);
    alive[drop] = false;
  }

  std::vector<size_t> survivors;
  for (size_t c = 0; c < cols; ++c) {
    if (alive[c]) survivors.push_back(c);
  }
  return survivors;
}

std::vector<RankedFeature> RankByClassCorrelation(
    const ml::FeatureMatrix& matrix, const std::vector<uint8_t>& labels,
    const std::vector<size_t>& rows, const std::vector<size_t>& columns) {
  std::vector<RankedFeature> ranked;
  ranked.reserve(columns.size());
  for (size_t c : columns) {
    ranked.push_back(
        {c, ml::FeatureClassCorrelation(matrix, c, labels, rows)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedFeature& a, const RankedFeature& b) {
              const double aa = std::abs(a.rho);
              const double bb = std::abs(b.rho);
              if (aa != bb) return aa > bb;
              return a.column < b.column;
            });
  return ranked;
}

}  // namespace skyex::core
