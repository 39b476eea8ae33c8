#ifndef SKYEX_EVAL_SAMPLING_H_
#define SKYEX_EVAL_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skyex::eval {

/// One train/test split: indices into the pair set.
struct Split {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Builds `repetitions` disjoint training sets of `train_fraction`·n rows
/// each (the paper's protocol: "repeated 10 times on disjoint training
/// sets"); each split's test set is everything outside its own training
/// set. When the requested disjoint sets exceed n rows, the repetition
/// count is reduced. A fraction above 1 takes every row; one too small
/// for a row, a negative one or NaN takes one row. With n = 0 there is
/// one split, and both its sets are empty.
std::vector<Split> DisjointTrainingSplits(size_t n, double train_fraction,
                                          size_t repetitions, uint64_t seed);

/// A single random train/test split.
Split RandomSplit(size_t n, double train_fraction, uint64_t seed);

}  // namespace skyex::eval

#endif  // SKYEX_EVAL_SAMPLING_H_
