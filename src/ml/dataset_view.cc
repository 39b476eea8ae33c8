#include "ml/dataset_view.h"

#include <algorithm>

namespace skyex::ml {

FeatureMatrix FeatureMatrix::Zeros(size_t rows,
                                   std::vector<std::string> names) {
  FeatureMatrix m;
  m.rows = rows;
  m.cols = names.size();
  m.names = std::move(names);
  m.values.assign(m.rows * m.cols, 0.0);
  return m;
}

FeatureMatrix FeatureMatrix::SelectColumns(
    const std::vector<size_t>& columns) const {
  FeatureMatrix out;
  out.rows = rows;
  out.cols = columns.size();
  out.names.reserve(columns.size());
  for (size_t c : columns) out.names.push_back(names[c]);
  out.values.resize(out.rows * out.cols);
  for (size_t r = 0; r < rows; ++r) {
    const double* src = Row(r);
    double* dst = out.values.data() + r * out.cols;
    for (size_t k = 0; k < columns.size(); ++k) dst[k] = src[columns[k]];
  }
  return out;
}

FeatureMatrix FeatureMatrix::SelectRows(
    const std::vector<size_t>& row_indices) const {
  FeatureMatrix out;
  out.rows = row_indices.size();
  out.cols = cols;
  out.names = names;
  out.values.resize(out.rows * out.cols);
  for (size_t k = 0; k < row_indices.size(); ++k) {
    const double* src = Row(row_indices[k]);
    std::copy(src, src + cols, out.values.data() + k * cols);
  }
  return out;
}

int FeatureMatrix::ColumnIndex(const std::string& name) const {
  for (size_t c = 0; c < names.size(); ++c) {
    if (names[c] == name) return static_cast<int>(c);
  }
  return -1;
}

}  // namespace skyex::ml
