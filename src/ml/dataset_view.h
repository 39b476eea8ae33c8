#ifndef SKYEX_ML_DATASET_VIEW_H_
#define SKYEX_ML_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace skyex::ml {

/// A dense row-major feature matrix with named columns. Rows are entity
/// pairs, columns are LGM-X features (or any other feature set).
struct FeatureMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> values;       // rows * cols, row-major
  std::vector<std::string> names;   // size cols

  double At(size_t r, size_t c) const { return values[r * cols + c]; }
  double* Row(size_t r) { return values.data() + r * cols; }
  const double* Row(size_t r) const { return values.data() + r * cols; }

  /// Allocates a rows×cols zero matrix with the given column names.
  static FeatureMatrix Zeros(size_t rows, std::vector<std::string> names);

  /// Returns a matrix with only the listed columns (in the given order).
  FeatureMatrix SelectColumns(const std::vector<size_t>& columns) const;

  /// Returns a matrix with only the listed rows (in the given order).
  FeatureMatrix SelectRows(const std::vector<size_t>& row_indices) const;

  /// Index of a named column, or -1.
  int ColumnIndex(const std::string& name) const;
};

}  // namespace skyex::ml

#endif  // SKYEX_ML_DATASET_VIEW_H_
