#ifndef SKYEX_ML_STATISTICS_H_
#define SKYEX_ML_STATISTICS_H_

#include <cstdint>
#include <vector>

#include "ml/dataset_view.h"

namespace skyex::ml {

/// Pearson correlation of two equally sized vectors; 0 when either is
/// constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Pearson correlation of a feature column against the binary class.
double FeatureClassCorrelation(const FeatureMatrix& matrix, size_t column,
                               const std::vector<uint8_t>& labels,
                               const std::vector<size_t>& rows);

/// Mutual information between two continuous variables, estimated with
/// equal-width binning (the discretize + mutinformation approach of the
/// R `infotheo` package the paper uses). Result in nats, ≥ 0.
double MutualInformation(const std::vector<double>& x,
                         const std::vector<double>& y, size_t bins = 0);

/// Normalized mutual information in [0, 1]:
/// MI(x, y) / sqrt(H(x) · H(y)); 0 when either entropy is 0.
double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins = 0);

/// Pairwise normalized mutual information of feature columns over the
/// given rows. Returns a cols×cols symmetric matrix (diagonal 1). Each
/// column is binned once; the column pairs run on the shared pool, and
/// every cell is the same double NormalizedMutualInformation gives for
/// its two columns, at any thread count.
std::vector<std::vector<double>> PairwiseNormalizedMi(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins = 0);

/// Pairwise redundancy of feature columns over the given rows:
/// max(normalized MI, |Pearson|) per pair, the score feature
/// de-duplication thresholds (core::FeatureSelectionOptions). Computed
/// as PairwiseNormalizedMi, with each column's mean and variance taken
/// once; every cell equals the per-pair PearsonCorrelation blend.
std::vector<std::vector<double>> PairwiseRedundancy(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins = 0);

/// Min/max over the finite entries of `values`; `ok` is false when no
/// finite entry exists (NaN/Inf are skipped, never propagated). Used by
/// the quality subsystem to size reference-profile histogram bounds.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
  bool ok = false;
};
ValueRange FiniteRange(const std::vector<double>& values);

}  // namespace skyex::ml

#endif  // SKYEX_ML_STATISTICS_H_
