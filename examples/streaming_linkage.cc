// Scenario: a live feed of POI records arriving one by one (the
// scalability direction the paper lists as future work). A SkyEx-T
// model is trained once on an initial batch; the IncrementalLinker then
// matches each arriving record against the current dataset in
// milliseconds instead of re-running the whole pipeline.

#include <cstdio>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "obs/stopwatch.h"

int main() {
  // Initial batch + training.
  skyex::data::NorthDkOptions options;
  options.num_entities = 2500;
  options.seed = 19;
  const skyex::core::PreparedData d = skyex::core::PrepareNorthDk(options);
  const auto split = skyex::eval::RandomSplit(d.pairs.size(), 0.08, 2);
  const skyex::core::SkyExT skyex;
  auto model = skyex.Train(d.features, d.pairs.labels, split.train);
  std::printf("Trained on the initial batch of %zu records.\n%s\n\n",
              d.dataset.size(), model.Describe(d.features.names).c_str());

  std::vector<size_t> accepted;
  for (size_t r : split.train) {
    if (d.pairs.labels[r]) accepted.push_back(r);
  }
  skyex::core::IncrementalLinkerOptions linker_options;
  // The synthetic feed is noisy (chains, shared buildings): calibrate
  // conservatively so only solid matches auto-link.
  linker_options.calibration_percentile = 0.5;
  skyex::core::IncrementalLinker linker(
      d.dataset, skyex::features::LgmXExtractor::FromCorpus(d.dataset),
      std::move(model), d.features, accepted, linker_options);

  // Simulate the stream: perturbed duplicates of existing records mixed
  // with brand-new entities.
  skyex::data::NorthDkOptions fresh_options;
  fresh_options.num_entities = 60;
  fresh_options.seed = 77;
  const skyex::data::Dataset fresh =
      skyex::data::GenerateNorthDk(fresh_options);

  skyex::obs::Stopwatch watch;
  size_t arrived = 0;
  size_t linked = 0;
  for (size_t k = 0; k < 60; ++k) {
    skyex::data::SpatialEntity incoming;
    if (k % 2 == 0) {
      incoming = linker.dataset()[(k * 37) % d.dataset.size()];
      incoming.id = 900000 + k;
      incoming.location.lat += 1e-5;  // fresh GPS fix
    } else {
      incoming = fresh[k];
      incoming.id = 900000 + k;
    }
    const auto links = linker.AddRecord(incoming);
    ++arrived;
    if (!links.empty()) {
      ++linked;
      if (linked <= 5) {
        std::printf("  \"%s\" linked to \"%s\"%s\n", incoming.name.c_str(),
                    linker.dataset()[links[0]].name.c_str(),
                    links.size() > 1 ? " (+ more)" : "");
      }
    }
  }
  std::printf(
      "\nProcessed %zu arrivals in %.1f ms (%.2f ms/record); %zu were "
      "linked to existing entities.\n",
      arrived, watch.ElapsedMillis(), watch.ElapsedMillis() / arrived,
      linked);
  return 0;
}
