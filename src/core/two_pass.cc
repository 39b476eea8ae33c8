#include "core/two_pass.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/pipeline.h"
#include "obs/trace.h"

namespace skyex::core {

TwoPassModel TrainTwoPass(const SkyExT& skyex,
                          const features::LgmXExtractor& extractor,
                          const data::Dataset& dataset,
                          const std::vector<geo::CandidatePair>& pairs,
                          const std::vector<uint8_t>& labels,
                          const std::vector<size_t>& train_rows) {
  SKYEX_SPAN("core/train_two_pass");
  const std::vector<size_t> mi_rows = [&] {
    const std::vector<size_t> all_rows = AllRows(pairs.size());
    return skyex.MiRows(train_rows, &all_rows);
  }();
  // The sample is ascending: a binary search finds a row's position in
  // it, and one merge pass lists the rows it leaves to the second pass.
  // Mapping the row lists element by element keeps their order, which
  // every statistic Train sums relies on.
  std::vector<size_t> sample = train_rows;
  sample.insert(sample.end(), mi_rows.begin(), mi_rows.end());
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  const auto positions = [&sample](const std::vector<size_t>& rows) {
    std::vector<size_t> out;
    out.reserve(rows.size());
    for (size_t r : rows) {
      out.push_back(static_cast<size_t>(
          std::lower_bound(sample.begin(), sample.end(), r) -
          sample.begin()));
    }
    return out;
  };

  TwoPassModel out;
  {
    std::vector<geo::CandidatePair> sample_pairs;
    std::vector<uint8_t> sample_labels;
    sample_pairs.reserve(sample.size());
    sample_labels.reserve(sample.size());
    for (size_t r : sample) {
      sample_pairs.push_back(pairs[r]);
      sample_labels.push_back(labels[r]);
    }
    const ml::FeatureMatrix full = extractor.Extract(dataset, sample_pairs);
    const std::vector<size_t> sample_mi_rows = positions(mi_rows);
    out.model = skyex.Train(full, sample_labels, positions(train_rows),
                            &sample_mi_rows);

    // Train's preference reads only columns of `full`, so the projection
    // cannot fail.
    out.projected = ProjectModel(out.model, full.cols, nullptr).value();
    const std::vector<size_t>& columns = out.projected.columns;
    std::vector<std::string> names;
    names.reserve(columns.size());
    for (size_t c : columns) names.push_back(full.names[c]);
    out.features = ml::FeatureMatrix::Zeros(pairs.size(), std::move(names));
    for (size_t k = 0; k < sample.size(); ++k) {
      const double* row = full.Row(k);
      double* projected = out.features.Row(sample[k]);
      for (size_t c = 0; c < columns.size(); ++c) {
        projected[c] = row[columns[c]];
      }
    }
  }  // frees the compact matrix before the second pass

  std::vector<size_t> rest;
  rest.reserve(pairs.size() - sample.size());
  for (size_t r = 0, next = 0; r < pairs.size(); ++r) {
    if (next < sample.size() && sample[next] == r) {
      ++next;
    } else {
      rest.push_back(r);
    }
  }
  extractor.ExtractRows(dataset, pairs, rest,
                        extractor.PlanColumns(out.projected.columns),
                        &out.features);
  return out;
}

}  // namespace skyex::core
