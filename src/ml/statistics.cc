#include "ml/statistics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "par/parallel_for.h"

namespace skyex::ml {

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double cov = 0.0;
  double var_x = 0.0;
  double var_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  return cov / std::sqrt(var_x * var_y);
}

double FeatureClassCorrelation(const FeatureMatrix& matrix, size_t column,
                               const std::vector<uint8_t>& labels,
                               const std::vector<size_t>& rows) {
  std::vector<double> x;
  std::vector<double> y;
  x.reserve(rows.size());
  y.reserve(rows.size());
  for (size_t r : rows) {
    x.push_back(matrix.At(r, column));
    y.push_back(static_cast<double>(labels[r]));
  }
  return PearsonCorrelation(x, y);
}

namespace {

using Matrix = std::vector<std::vector<double>>;

// Equal-width discretization into `bins` buckets; constant vectors map
// to bucket 0.
std::vector<uint32_t> Discretize(const std::vector<double>& x, size_t bins) {
  std::vector<uint32_t> out(x.size(), 0);
  if (x.empty()) return out;
  const auto [min_it, max_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < x.size(); ++i) {
    const size_t b = static_cast<size_t>((x[i] - lo) / width);
    out[i] = static_cast<uint32_t>(std::min(b, bins - 1));
  }
  return out;
}

size_t DefaultBins(size_t n) {
  // The infotheo default: cube root of the sample size.
  return std::max<size_t>(2, static_cast<size_t>(std::cbrt(
                                 static_cast<double>(n))));
}

// prob[k] is 1/n added k times in sequence to 0.0. Probabilities are read
// from it by integer count rather than computed as k * (1/n), which
// rounds differently: the estimator has always accumulated 1/n once per
// row, and the table keeps every probability that same double.
std::vector<double> ProbabilityTable(size_t n) {
  std::vector<double> prob(n + 1, 0.0);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t k = 1; k <= n; ++k) prob[k] = prob[k - 1] + inv_n;
  return prob;
}

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

// One column binned over the sample, once for every pair it is in.
struct BinnedColumn {
  std::vector<uint32_t> codes;  // bin of each row
  std::vector<double> p;        // marginal distribution of the bins
  double entropy = 0.0;
};

// Bins all of `x`; the marginal counts its first `n` rows.
BinnedColumn Bin(const std::vector<double>& x, size_t n, size_t bins,
                 const std::vector<double>& prob) {
  BinnedColumn column;
  column.codes = Discretize(x, bins);
  std::vector<size_t> counts(bins, 0);
  for (size_t i = 0; i < n; ++i) ++counts[column.codes[i]];
  column.p.resize(bins);
  for (size_t b = 0; b < bins; ++b) column.p[b] = prob[counts[b]];
  column.entropy = Entropy(column.p);
  return column;
}

// A pair's joint histogram over the first `n` rows, in integer counts.
std::vector<uint32_t> CountJoint(const BinnedColumn& x,
                                 const BinnedColumn& y, size_t n,
                                 size_t bins) {
  std::vector<uint32_t> joint(bins * bins, 0);
  for (size_t i = 0; i < n; ++i) ++joint[x.codes[i] * bins + y.codes[i]];
  return joint;
}

// MI of a pair, summed over its joint cells in (i, j) order and skipping
// empty cells.
double Mi(const BinnedColumn& x, const BinnedColumn& y, size_t n,
          size_t bins, const std::vector<double>& prob) {
  const std::vector<uint32_t> joint = CountJoint(x, y, n, bins);
  double mi = 0.0;
  for (size_t i = 0; i < bins; ++i) {
    for (size_t j = 0; j < bins; ++j) {
      const uint32_t count = joint[i * bins + j];
      if (count == 0) continue;
      const double p = prob[count];
      const double denom = x.p[i] * y.p[j];
      if (denom > 0.0) mi += p * std::log(p / denom);
    }
  }
  return std::max(0.0, mi);
}

double Nmi(const BinnedColumn& x, const BinnedColumn& y, size_t n,
           size_t bins, const std::vector<double>& prob) {
  if (x.entropy <= 0.0 || y.entropy <= 0.0) return 0.0;
  return std::min(1.0, Mi(x, y, n, bins, prob) /
                           std::sqrt(x.entropy * y.entropy));
}

std::vector<double> Gather(const FeatureMatrix& matrix,
                           const std::vector<size_t>& rows, size_t column) {
  std::vector<double> x;
  x.reserve(rows.size());
  for (size_t r : rows) x.push_back(matrix.At(r, column));
  return x;
}

// Runs fn(c) for every column on the pool.
template <typename Fn>
void ForEachColumn(size_t cols, Fn&& fn) {
  par::ForOptions options;
  options.chunking = par::Chunking::kDynamic;
  par::ParallelFor(0, cols, options, fn);
}

// Runs score(a, b) for every pair a < b, with the triangle's rows spread
// over the pool (dynamically: row a holds cols - 1 - a pairs). Each call
// writes only its own pair's cells.
template <typename Score>
void ForEachPair(size_t cols, Score&& score) {
  ForEachColumn(cols, [&](size_t a) {
    for (size_t b = a + 1; b < cols; ++b) score(a, b);
  });
}

// One column over the sample minus its mean, in row order, and the sum
// of its squares: the moments PearsonCorrelation takes, once per column.
struct CentredColumn {
  std::vector<double> values;
  double var = 0.0;
};

CentredColumn Centre(std::vector<double> x) {
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  CentredColumn column;
  for (double& v : x) {
    v -= mean;
    column.var += v * v;
  }
  column.values = std::move(x);
  return column;
}

// Raises every off-diagonal cell to |Pearson| where that is larger.
void BlendPearson(const FeatureMatrix& matrix,
                  const std::vector<size_t>& rows, Matrix* scores) {
  std::vector<CentredColumn> columns(matrix.cols);
  ForEachColumn(matrix.cols, [&](size_t c) {
    columns[c] = Centre(Gather(matrix, rows, c));
  });
  ForEachPair(matrix.cols, [&](size_t a, size_t b) {
    const CentredColumn& x = columns[a];
    const CentredColumn& y = columns[b];
    double cov = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) cov += x.values[i] * y.values[i];
    const double rho =
        x.var <= 0.0 || y.var <= 0.0 ? 0.0 : cov / std::sqrt(x.var * y.var);
    double& cell = (*scores)[a][b];
    cell = std::max(cell, std::abs(rho));
    (*scores)[b][a] = cell;
  });
}

}  // namespace

double MutualInformation(const std::vector<double>& x,
                         const std::vector<double>& y, size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  const std::vector<double> prob = ProbabilityTable(n);
  return Mi(Bin(x, n, bins, prob), Bin(y, n, bins, prob), n, bins, prob);
}

double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  const std::vector<double> prob = ProbabilityTable(n);
  return Nmi(Bin(x, n, bins, prob), Bin(y, n, bins, prob), n, bins, prob);
}

std::vector<std::vector<double>> PairwiseNormalizedMi(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  const size_t cols = matrix.cols;
  Matrix scores(cols, std::vector<double>(cols, 0.0));
  for (size_t c = 0; c < cols; ++c) scores[c][c] = 1.0;
  const size_t n = rows.size();
  if (n < 2) return scores;
  if (bins == 0) bins = DefaultBins(n);
  const std::vector<double> prob = ProbabilityTable(n);
  std::vector<BinnedColumn> columns(cols);
  ForEachColumn(cols, [&](size_t c) {
    columns[c] = Bin(Gather(matrix, rows, c), n, bins, prob);
  });
  ForEachPair(cols, [&](size_t a, size_t b) {
    const double v = Nmi(columns[a], columns[b], n, bins, prob);
    scores[a][b] = v;
    scores[b][a] = v;
  });
  return scores;
}

std::vector<std::vector<double>> PairwiseRedundancy(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  // The bin codes are freed before the centred columns are taken, so
  // the step holds at most one copy of the sample.
  Matrix scores = PairwiseNormalizedMi(matrix, rows, bins);
  if (rows.size() >= 2) BlendPearson(matrix, rows, &scores);
  return scores;
}

ValueRange FiniteRange(const std::vector<double>& values) {
  ValueRange range;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    if (!range.ok) {
      range.min = v;
      range.max = v;
      range.ok = true;
    } else {
      range.min = std::min(range.min, v);
      range.max = std::max(range.max, v);
    }
  }
  return range;
}

}  // namespace skyex::ml
