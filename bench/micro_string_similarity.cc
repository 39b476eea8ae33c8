// Micro-benchmarks of the string similarity substrate.
//
// Every kernel rewritten for speed runs next to its frozen reference twin
// (text/reference.h, suffix _Reference) on two pairs: `names`, a name-length
// pair, and `over64`, a pair whose strings exceed 64 bytes, where the
// bit-parallel edit distances and Jaro fall back to their scalar paths.
// docs/performance.md's ns/op table comes from this binary.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/normalize.h"
#include "text/reference.h"
#include "text/similarity_registry.h"
#include "text/token_similarity.h"

namespace {

namespace text = skyex::text;

// Built at run time, so the compiler cannot fold a kernel's work.
const std::vector<std::pair<std::string, std::string>>& Pairs() {
  static const auto& pairs = *new std::vector<
      std::pair<std::string, std::string>>{
      {"restaurant ambiance vestergade", "ambiançe restaurante vester gade"},
      {"restaurant ambiance vestergade 12 st tv 9000 aalborg nordjylland dk",
       "ambiançe restaurante vester gade 12 9000 aalborg city nord jylland"},
  };
  return pairs;
}

const char* const kPairNames[] = {"names", "over64"};

struct Kernel {
  const char* name;
  text::SimilarityFn fn;
};

const Kernel kKernels[] = {
    {"Levenshtein", text::LevenshteinSimilarity},
    {"Levenshtein_Reference", text::reference::LevenshteinSimilarity},
    {"DamerauLevenshtein", text::DamerauLevenshteinSimilarity},
    {"DamerauLevenshtein_Reference",
     text::reference::DamerauLevenshteinSimilarity},
    {"Jaro", text::JaroSimilarity},
    {"Jaro_Reference", text::reference::JaroSimilarity},
    {"CosineBigrams", text::CosineNgramSimilarity},
    {"CosineBigrams_Reference",
     [](std::string_view a, std::string_view b) {
       return text::reference::CosineNgramSimilarity(a, b);
     }},
    {"JaccardBigrams", text::JaccardNgramSimilarity},
    {"JaccardBigrams_Reference",
     [](std::string_view a, std::string_view b) {
       return text::reference::JaccardNgramSimilarity(a, b);
     }},
    {"DiceBigrams", text::DiceBigramSimilarity},
    {"DiceBigrams_Reference", text::reference::DiceBigramSimilarity},
    {"Skipgram", text::SkipgramSimilarity},
    {"Skipgram_Reference", text::reference::SkipgramSimilarity},
    {"JaroWinkler", text::JaroWinklerSimilarity},
    {"PermutedJaroWinkler",
     [](std::string_view a, std::string_view b) {
       return text::PermutedJaroWinklerSimilarity(a, b);
     }},
    {"MongeElkan", text::MongeElkanSimilarity},
    {"SoftJaccard",
     [](std::string_view a, std::string_view b) {
       return text::SoftJaccardSimilarity(a, b);
     }},
    {"Davies", text::DaviesDeSallesSimilarity},
};

const int kRegistered = [] {
  for (const Kernel& k : kKernels) {
    for (size_t p = 0; p < Pairs().size(); ++p) {
      const std::string name =
          std::string("BM_") + k.name + "/" + kPairNames[p];
      benchmark::RegisterBenchmark(
          name.c_str(), [fn = k.fn, p](benchmark::State& state) {
            const auto& [a, b] = Pairs()[p];
            for (auto _ : state) benchmark::DoNotOptimize(fn(a, b));
          });
    }
  }
  return 0;
}();

void BM_Normalize(benchmark::State& state) {
  const std::string& input = Pairs()[0].second;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Normalize(input));
  }
}
BENCHMARK(BM_Normalize);

void BM_AllBasicMeasures(benchmark::State& state) {
  const auto& measures = text::BasicSimilarities();
  const auto& [a, b] = Pairs()[0];
  for (auto _ : state) {
    double total = 0.0;
    for (const auto& m : measures) total += m.fn(a, b);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AllBasicMeasures);

}  // namespace
