#include "eval/sampling.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <random>

namespace skyex::eval {

std::vector<Split> DisjointTrainingSplits(size_t n, double train_fraction,
                                          size_t repetitions, uint64_t seed) {
  if (n == 0) return std::vector<Split>(1);  // no row to sample
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(indices.begin(), indices.end(), rng);

  // Casting a negative or NaN product to size_t is undefined, so the
  // fraction is clamped to [0, 1] first (NaN to 0).
  const double fraction =
      train_fraction > 0.0 ? std::min(train_fraction, 1.0) : 0.0;
  size_t train_size =
      static_cast<size_t>(fraction * static_cast<double>(n));
  train_size = std::max<size_t>(1, std::min(train_size, n));
  // All training sets must be disjoint.
  const size_t max_reps = std::max<size_t>(1, n / train_size);
  repetitions = std::min(repetitions, max_reps);

  std::vector<Split> splits;
  splits.reserve(repetitions);
  for (size_t rep = 0; rep < repetitions; ++rep) {
    Split split;
    const size_t begin = rep * train_size;
    const size_t end = begin + train_size;
    split.train.assign(indices.begin() + static_cast<ptrdiff_t>(begin),
                       indices.begin() + static_cast<ptrdiff_t>(end));
    split.test.reserve(n - train_size);
    split.test.insert(split.test.end(), indices.begin(),
                      indices.begin() + static_cast<ptrdiff_t>(begin));
    split.test.insert(split.test.end(),
                      indices.begin() + static_cast<ptrdiff_t>(end),
                      indices.end());
    splits.push_back(std::move(split));
  }
  return splits;
}

Split RandomSplit(size_t n, double train_fraction, uint64_t seed) {
  std::vector<Split> splits =
      DisjointTrainingSplits(n, train_fraction, 1, seed);
  return std::move(splits.front());
}

}  // namespace skyex::eval
