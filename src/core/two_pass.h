#ifndef SKYEX_CORE_TWO_PASS_H_
#define SKYEX_CORE_TWO_PASS_H_

#include <cstdint>
#include <vector>

#include "core/skyex_t.h"
#include "data/spatial_entity.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "ml/dataset_view.h"

namespace skyex::core {

/// A SkyEx-T model trained on a labelled sample of blocked pairs, and the
/// matrix that labelling every pair under it reads.
struct TwoPassModel {
  /// The model as SkyExT::Train returns it, on LGM-X schema columns.
  SkyExTModel model;
  /// `model` projected onto the columns its preference reads.
  ProjectedModel projected;
  /// projected.columns of every pair: row r holds pairs[r].
  ml::FeatureMatrix features;
};

/// Trains `skyex` on the labelled rows `train_rows`, with the MI
/// de-duplication step over every pair (what `skyex link` trains), in two
/// extraction passes:
///   1. every LGM-X column of the rows Train reads (`train_rows` and
///      SkyExT::MiRows), ascending, into a compact matrix that Train runs
///      on with each element of both row lists mapped onto its row there;
///   2. the projected model's columns of every pair: the sampled rows'
///      copied out of pass 1, the rest extracted under the model's plan.
/// Each pair is extracted once, and the compact matrix is freed before
/// the function returns. The result equals the one-pass run bit for bit:
/// `model` is SkyExT::Train(full, labels, train_rows, &AllRows(n)) on
/// full = extractor.Extract(dataset, pairs), and `features` holds the
/// same doubles as full.SelectColumns(projected.columns).
TwoPassModel TrainTwoPass(const SkyExT& skyex,
                          const features::LgmXExtractor& extractor,
                          const data::Dataset& dataset,
                          const std::vector<geo::CandidatePair>& pairs,
                          const std::vector<uint8_t>& labels,
                          const std::vector<size_t>& train_rows);

}  // namespace skyex::core

#endif  // SKYEX_CORE_TWO_PASS_H_
