// Pins feature de-duplication's redundancy matrix bit-identical to the
// per-pair estimator it replaced. The reference namespace below freezes
// that implementation: every column pair re-discretized both columns,
// accumulated 1/n into double histograms row by row, and the |Pearson|
// blend recomputed both columns' means and variances. "Bit-identical" is
// memcmp equality of every cell of PairwiseNormalizedMi and of the
// blended max(NMI, |Pearson|) matrix, plus equal DeduplicateFeatures
// survivors, at 1, 2 and 8 pool threads. CI re-runs the suite under
// ASan/UBSan and TSan.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/feature_selection.h"
#include "core/pipeline.h"
#include "ml/dataset_view.h"
#include "ml/statistics.h"
#include "par/thread_pool.h"

namespace skyex {
namespace {

using Matrix = std::vector<std::vector<double>>;

// ------------------------------------------- frozen per-pair reference

namespace reference {

std::vector<size_t> Discretize(const std::vector<double>& x, size_t bins) {
  std::vector<size_t> out(x.size(), 0);
  if (x.empty()) return out;
  const auto [min_it, max_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < x.size(); ++i) {
    size_t b = static_cast<size_t>((x[i] - lo) / width);
    out[i] = std::min(b, bins - 1);
  }
  return out;
}

size_t DefaultBins(size_t n) {
  return std::max<size_t>(2, static_cast<size_t>(std::cbrt(
                                 static_cast<double>(n))));
}

struct JointCounts {
  std::vector<double> px;
  std::vector<double> py;
  std::vector<double> pxy;
  size_t bins = 0;
};

JointCounts CountJoint(const std::vector<size_t>& bx,
                       const std::vector<size_t>& by, size_t bins) {
  JointCounts c;
  c.bins = bins;
  c.px.assign(bins, 0.0);
  c.py.assign(bins, 0.0);
  c.pxy.assign(bins * bins, 0.0);
  const double inv_n = 1.0 / static_cast<double>(bx.size());
  for (size_t i = 0; i < bx.size(); ++i) {
    c.px[bx[i]] += inv_n;
    c.py[by[i]] += inv_n;
    c.pxy[bx[i] * bins + by[i]] += inv_n;
  }
  return c;
}

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

double MiFromCounts(const JointCounts& c) {
  double mi = 0.0;
  for (size_t i = 0; i < c.bins; ++i) {
    for (size_t j = 0; j < c.bins; ++j) {
      const double joint = c.pxy[i * c.bins + j];
      if (joint <= 0.0) continue;
      const double denom = c.px[i] * c.py[j];
      if (denom > 0.0) mi += joint * std::log(joint / denom);
    }
  }
  return std::max(0.0, mi);
}

double MutualInformation(const std::vector<double>& x,
                         const std::vector<double>& y, size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  return MiFromCounts(CountJoint(Discretize(x, bins), Discretize(y, bins),
                                 bins));
}

double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  const JointCounts c =
      CountJoint(Discretize(x, bins), Discretize(y, bins), bins);
  const double hx = Entropy(c.px);
  const double hy = Entropy(c.py);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  return std::min(1.0, MiFromCounts(c) / std::sqrt(hx * hy));
}

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

std::vector<std::vector<double>> Columns(const ml::FeatureMatrix& matrix,
                                         const std::vector<size_t>& rows) {
  std::vector<std::vector<double>> columns(matrix.cols);
  for (size_t c = 0; c < matrix.cols; ++c) {
    columns[c].reserve(rows.size());
    for (size_t r : rows) columns[c].push_back(matrix.At(r, c));
  }
  return columns;
}

Matrix PairwiseNormalizedMi(const ml::FeatureMatrix& matrix,
                            const std::vector<size_t>& rows, size_t bins) {
  const size_t cols = matrix.cols;
  Matrix mi(cols, std::vector<double>(cols, 0.0));
  const auto columns = Columns(matrix, rows);
  for (size_t a = 0; a < cols; ++a) {
    mi[a][a] = 1.0;
    for (size_t b = a + 1; b < cols; ++b) {
      const double v =
          NormalizedMutualInformation(columns[a], columns[b], bins);
      mi[a][b] = v;
      mi[b][a] = v;
    }
  }
  return mi;
}

// DeduplicateFeatures' blend before the redundancy matrix was shared.
Matrix Blend(Matrix mi, const ml::FeatureMatrix& matrix,
             const std::vector<size_t>& rows) {
  const auto columns = Columns(matrix, rows);
  for (size_t a = 0; a < matrix.cols; ++a) {
    for (size_t b = a + 1; b < matrix.cols; ++b) {
      const double rho =
          std::abs(PearsonCorrelation(columns[a], columns[b]));
      mi[a][b] = std::max(mi[a][b], rho);
      mi[b][a] = mi[a][b];
    }
  }
  return mi;
}

std::vector<size_t> Survivors(const Matrix& mi, double threshold) {
  const size_t cols = mi.size();
  std::vector<bool> alive(cols, true);
  for (;;) {
    double best = threshold;
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

}  // namespace reference

// ------------------------------------------------------------- helpers

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Number of cells whose bit patterns differ; reports the first few.
size_t CountMismatches(const Matrix& want, const Matrix& got,
                       const std::string& what) {
  if (want.size() != got.size()) {
    ADD_FAILURE() << what << ": " << got.size() << " rows, want "
                  << want.size();
    return want.size() + got.size();
  }
  size_t mismatches = 0;
  for (size_t a = 0; a < want.size(); ++a) {
    if (got[a].size() != want[a].size()) {
      ADD_FAILURE() << what << " row " << a << ": " << got[a].size()
                    << " cells, want " << want[a].size();
      mismatches += want[a].size();
      continue;
    }
    for (size_t b = 0; b < want[a].size(); ++b) {
      if (std::memcmp(&want[a][b], &got[a][b], sizeof(double)) == 0) {
        continue;
      }
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << " cell (" << a << ", " << b
                      << "): reference " << want[a][b] << ", got "
                      << got[a][b];
      }
    }
  }
  return mismatches;
}

// Compares both matrices and the survivors against the reference at
// every thread count.
void ExpectMatchesReference(const ml::FeatureMatrix& matrix,
                            const std::vector<size_t>& rows, size_t bins) {
  SCOPED_TRACE("rows=" + std::to_string(rows.size()) +
               " bins=" + std::to_string(bins));
  const Matrix want_mi = reference::PairwiseNormalizedMi(matrix, rows, bins);
  const Matrix want_blend = reference::Blend(want_mi, matrix, rows);
  core::FeatureSelectionOptions options;
  options.mi_bins = bins;
  const std::vector<size_t> want_survivors =
      reference::Survivors(want_blend, options.mi_threshold);
  for (const size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(CountMismatches(want_mi,
                              ml::PairwiseNormalizedMi(matrix, rows, bins),
                              "PairwiseNormalizedMi"),
              0u);
    EXPECT_EQ(CountMismatches(want_blend,
                              ml::PairwiseRedundancy(matrix, rows, bins),
                              "PairwiseRedundancy"),
              0u);
    EXPECT_EQ(core::DeduplicateFeatures(matrix, rows, options),
              want_survivors);
  }
  par::ThreadPool::SetGlobalThreads(0);
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// The rows SkyExT::Train hands to DeduplicateFeatures: every blocked
// pair, thinned by a fixed stride to max_mi_rows.
std::vector<size_t> ThinAsTrainDoes(size_t num_rows, size_t max_rows) {
  std::vector<size_t> rows = Iota(num_rows);
  if (rows.size() <= max_rows) return rows;
  std::vector<size_t> thinned;
  const double stride =
      static_cast<double>(rows.size()) / static_cast<double>(max_rows);
  for (size_t k = 0; k < max_rows; ++k) {
    thinned.push_back(rows[static_cast<size_t>(k * stride)]);
  }
  return thinned;
}

// Columns built to hit the estimator's edges: duplicates, negations,
// constants, a near-constant column, signed zeros, coarse grids and
// skewed columns whose bins hold thousands of rows.
ml::FeatureMatrix EdgeMatrix(size_t n, uint64_t seed) {
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(
      n, {"uniform", "dup", "negated", "constant", "one_off", "signed_zero",
          "zeros_only", "square", "grid", "skewed", "binary", "noise"});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t r = 0; r < n; ++r) {
    double* row = m.Row(r);
    const double u = unit(rng);
    row[0] = u;
    row[1] = u;
    row[2] = -u;
    row[3] = 0.75;
    row[4] = r == n / 3 ? 1.0 : 0.25;
    const double z = unit(rng);
    row[5] = z < 0.3 ? 0.0 : (z < 0.6 ? -0.0 : 1.0);
    row[6] = r % 2 == 0 ? 0.0 : -0.0;
    row[7] = u * u;
    row[8] = std::round((u + 0.2 * unit(rng)) * 10.0) / 10.0;
    const double s = unit(rng);
    row[9] = s < 0.8 ? 1.0 : (s < 0.9 ? 0.0 : u);
    row[10] = u + 0.3 * unit(rng) > 0.7 ? 1.0 : 0.0;
    row[11] = unit(rng);
  }
  return m;
}

// --------------------------------------------------------------- tests

TEST(MiEquiv, ThinnedLgmXFeaturesOfAGeneratedWorldMatchTheReference) {
  data::NorthDkOptions options;
  options.num_entities = 2000;
  const core::PreparedData world = core::PrepareNorthDk(options);
  ASSERT_EQ(world.features.cols, 88u);
  const core::FeatureSelectionOptions defaults;
  // A small cap thins the world's pairs the way the default cap thins
  // the 8k world's, at a quarter of the reference's cost.
  const std::vector<size_t> rows =
      ThinAsTrainDoes(world.features.rows, defaults.max_mi_rows / 4);
  ASSERT_EQ(rows.size(), defaults.max_mi_rows / 4);
  ExpectMatchesReference(world.features, rows, defaults.mi_bins);
}

TEST(MiEquiv, EdgeColumnsMatchTheReferenceAtEveryBinCount) {
  const ml::FeatureMatrix m = EdgeMatrix(6000, 3);
  for (const size_t bins : {0, 2, 27, 64, 300}) {
    ExpectMatchesReference(m, Iota(m.rows), bins);
  }
}

TEST(MiEquiv, UnorderedAndRepeatedRowsMatchTheReference) {
  const ml::FeatureMatrix m = EdgeMatrix(2000, 5);
  std::vector<size_t> rows = Iota(m.rows);
  std::reverse(rows.begin(), rows.end());
  ExpectMatchesReference(m, rows, 0);
  std::vector<size_t> repeated;
  for (size_t r = 0; r < m.rows; r += 3) {
    repeated.push_back(r);
    repeated.push_back(r / 2);
  }
  ExpectMatchesReference(m, repeated, 0);
}

TEST(MiEquiv, TinySamplesMatchTheReference) {
  const ml::FeatureMatrix m = EdgeMatrix(16, 7);
  for (const size_t n : {0, 1, 2, 3}) {
    for (const size_t bins : {0, 2, 300}) {
      ExpectMatchesReference(m, Iota(n), bins);
    }
  }
}

TEST(MiEquiv, SinglePairEstimatorsMatchTheReference) {
  const ml::FeatureMatrix m = EdgeMatrix(5000, 11);
  const auto columns = reference::Columns(m, Iota(m.rows));
  size_t mismatches = 0;
  for (const size_t bins : {0, 2, 27, 64, 300}) {
    for (size_t a = 0; a < columns.size(); ++a) {
      for (size_t b = 0; b < columns.size(); ++b) {
        const double want_mi =
            reference::MutualInformation(columns[a], columns[b], bins);
        const double got_mi =
            ml::MutualInformation(columns[a], columns[b], bins);
        const double want_nmi = reference::NormalizedMutualInformation(
            columns[a], columns[b], bins);
        const double got_nmi =
            ml::NormalizedMutualInformation(columns[a], columns[b], bins);
        if (std::memcmp(&want_mi, &got_mi, sizeof(double)) != 0 ||
            std::memcmp(&want_nmi, &got_nmi, sizeof(double)) != 0) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "columns (" << a << ", " << b << ") bins "
                          << bins << ": MI " << want_mi << " vs " << got_mi
                          << ", NMI " << want_nmi << " vs " << got_nmi;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace skyex
