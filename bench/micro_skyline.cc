// Micro-benchmarks of the skyline engine: dominance checks and layer
// peeling, with and without the dominance-compatible presort.

#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "ml/dataset_view.h"
#include "skyline/layers.h"
#include "skyline/preference.h"

namespace {

using skyex::ml::FeatureMatrix;
using skyex::skyline::High;
using skyex::skyline::Low;
using skyex::skyline::ParetoOf;
using skyex::skyline::Preference;
using skyex::skyline::PriorityOf;
using skyex::skyline::SkylinePeeler;

FeatureMatrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  FeatureMatrix m;
  m.rows = rows;
  m.cols = cols;
  for (size_t c = 0; c < cols; ++c) m.names.push_back("f");
  m.values.resize(rows * cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : m.values) v = std::round(unit(rng) * 50.0) / 50.0;
  return m;
}

std::unique_ptr<Preference> CanonicalPreference(size_t cols) {
  std::vector<std::unique_ptr<Preference>> g1;
  for (size_t c = 0; c < cols / 2; ++c) g1.push_back(High(c));
  std::vector<std::unique_ptr<Preference>> g2;
  for (size_t c = cols / 2; c < cols; ++c) g2.push_back(High(c));
  std::vector<std::unique_ptr<Preference>> parts;
  parts.push_back(ParetoOf(std::move(g1)));
  parts.push_back(ParetoOf(std::move(g2)));
  return PriorityOf(std::move(parts));
}

void BM_CompiledDominance(benchmark::State& state) {
  const size_t cols = static_cast<size_t>(state.range(0));
  const FeatureMatrix m = RandomMatrix(1024, cols, 1);
  const auto pref = CanonicalPreference(cols);
  const auto compiled = skyex::skyline::Compile(*pref);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled->Compare(m.Row(i % 1024), m.Row((i + 7) % 1024)));
    ++i;
  }
}
BENCHMARK(BM_CompiledDominance)->Arg(4)->Arg(8)->Arg(16);

void BM_TreeDominance(benchmark::State& state) {
  const size_t cols = static_cast<size_t>(state.range(0));
  const FeatureMatrix m = RandomMatrix(1024, cols, 1);
  const auto pref = CanonicalPreference(cols);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pref->Compare(m.Row(i % 1024), m.Row((i + 7) % 1024)));
    ++i;
  }
}
BENCHMARK(BM_TreeDominance)->Arg(4)->Arg(8)->Arg(16);

void BM_PeelFirstSkyline(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const FeatureMatrix m = RandomMatrix(rows, 6, 2);
  const auto pref = CanonicalPreference(6);
  std::vector<size_t> all(rows);
  std::iota(all.begin(), all.end(), 0);
  for (auto _ : state) {
    SkylinePeeler peeler(m, all, *pref);
    benchmark::DoNotOptimize(peeler.Next());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_PeelFirstSkyline)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_FullLayering(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const FeatureMatrix m = RandomMatrix(rows, 6, 3);
  const auto pref = CanonicalPreference(6);
  std::vector<size_t> all(rows);
  std::iota(all.begin(), all.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        skyex::skyline::ComputeSkylineLayers(m, all, *pref));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_FullLayering)->Arg(1000)->Arg(5000)->Arg(20000);

// Ablation: the same full layering forced through the general BNL path
// (no presort) by wrapping the preference in a non-compilable tree.
class OpaquePreference : public Preference {
 public:
  explicit OpaquePreference(std::unique_ptr<Preference> inner)
      : inner_(std::move(inner)) {}
  skyex::skyline::Comparison Compare(const double* a,
                                     const double* b) const override {
    return inner_->Compare(a, b);
  }
  std::string ToString(const std::vector<std::string>& names) const override {
    return inner_->ToString(names);
  }
  void CollectFeatures(std::vector<size_t>* out) const override {
    inner_->CollectFeatures(out);
  }
  std::unique_ptr<Preference> Clone() const override {
    return std::make_unique<OpaquePreference>(inner_->Clone());
  }
  std::unique_ptr<Preference> RemapFeatures(
      const std::vector<size_t>& position) const override {
    return std::make_unique<OpaquePreference>(inner_->RemapFeatures(position));
  }

 private:
  std::unique_ptr<Preference> inner_;
};

void BM_FullLayeringNoPresort(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const FeatureMatrix m = RandomMatrix(rows, 6, 3);
  const OpaquePreference pref(CanonicalPreference(6));
  std::vector<size_t> all(rows);
  std::iota(all.begin(), all.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        skyex::skyline::ComputeSkylineLayers(m, all, pref));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_FullLayeringNoPresort)->Arg(1000)->Arg(5000);

}  // namespace
