// The explainability comparison of Section 5.4, made concrete: SkyEx-T's
// model is one readable preference expression, while explaining the
// tree ensemble of comparable accuracy requires a permutation-importance
// pass (Strobl et al.) that costs minutes and yields only global feature
// weights.

#include <cstdio>

#include "bench_common.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "ml/importance.h"
#include "ml/random_forest.h"
#include "obs/stopwatch.h"

int main(int argc, char** argv) {
  const auto config = skyex::bench::ParseFlags(argc, argv);
  const auto d = skyex::bench::PrepareNorthDkBench(config);
  const auto split =
      skyex::eval::RandomSplit(d.pairs.size(), 0.04, config.seed + 900);
  const std::vector<size_t> all_rows =
      skyex::core::AllRows(d.pairs.size());

  std::printf("--- SkyEx-T: the model IS the explanation ---\n");
  skyex::obs::Stopwatch sky_watch;
  const skyex::core::SkyExT skyex;
  const auto model =
      skyex.Train(d.features, d.pairs.labels, split.train, &all_rows);
  const double sky_ms = sky_watch.ElapsedMillis();
  std::printf("%s\n(training: %.0f ms; nothing further needed)\n\n",
              model.Describe(d.features.names).c_str(), sky_ms);

  std::printf("--- Random forest: post-hoc permutation importance ---\n");
  skyex::obs::Stopwatch rf_watch;
  skyex::ml::RandomForest forest;
  forest.Fit(d.features, d.pairs.labels, split.train);
  const double fit_ms = rf_watch.ElapsedMillis();

  skyex::obs::Stopwatch imp_watch;
  skyex::ml::ImportanceOptions imp_options;
  imp_options.max_rows = config.max_eval / 4;
  const auto importances = skyex::ml::PermutationImportance(
      forest, d.features, d.pairs.labels, split.test, imp_options);
  const double imp_ms = imp_watch.ElapsedMillis();

  std::printf("top-10 of %zu features by F1 drop when shuffled:\n",
              importances.size());
  for (size_t k = 0; k < std::min<size_t>(10, importances.size()); ++k) {
    std::printf("  %-38s %+.4f\n", importances[k].name.c_str(),
                importances[k].importance);
  }
  std::printf(
      "(fit: %.0f ms; explanation pass: %.0f ms — %.0fx the whole "
      "SkyEx-T training, and it still yields only global weights, not a "
      "decision rule)\n",
      fit_ms, imp_ms, imp_ms / std::max(1.0, sky_ms));
  return 0;
}
