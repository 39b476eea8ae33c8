#include "features/lgm_x.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "features/feature_schema.h"
#include "features/sketch.h"
#include "geo/distance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/prof.h"
#include "par/parallel_for.h"
#include "text/edit_distance.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"
#include "text/tokenize.h"

namespace skyex::features {

namespace {

// Stack-buffer capacity for group (i) raw scores; the registry is fixed at
// 14 measures (feature_schema pins the count), so this has ample headroom.
// It is also the width of a ColumnPlan::Text bit mask.
constexpr size_t kRawBufferCap = 32;

size_t IndexOfMeasure(const std::vector<text::NamedSimilarity>& table,
                      std::string_view name) {
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == name) return i;
  }
  throw std::logic_error("similarity registry is missing measure: " +
                         std::string(name));
}

}  // namespace

LgmXExtractor::LgmXExtractor(lgm::LgmSim name_sim, lgm::LgmSim addr_sim,
                             LgmXOptions options)
    : name_sim_(std::move(name_sim)),
      addr_sim_(std::move(addr_sim)),
      options_(options),
      names_(LgmXFeatureNames()) {
  const auto& basic = text::BasicSimilarities();
  const auto& sortable = text::SortableSimilarities();
  if (basic.size() > kRawBufferCap) {
    throw std::logic_error("similarity registry outgrew the raw buffer");
  }
  sortable_to_basic_.reserve(sortable.size());
  for (const text::NamedSimilarity& m : sortable) {
    sortable_to_basic_.push_back(IndexOfMeasure(basic, m.name));
  }
  sorted_jw_basic_index_ = IndexOfMeasure(basic, "jaro_winkler_sorted");
  jw_basic_index_ = IndexOfMeasure(basic, "jaro_winkler");
  dl_basic_index_ = IndexOfMeasure(basic, "damerau_levenshtein");
  // Per attribute, groups (i)-(iii) and group (iv)'s three list scores;
  // then the address-number and spatial features.
  if (names_.size() != 2 * (basic.size() + 2 * sortable.size() + 3) + 2) {
    throw std::logic_error("LGM-X schema disagrees with the registry");
  }
  std::vector<size_t> all_columns(names_.size());
  std::iota(all_columns.begin(), all_columns.end(), 0);
  full_plan_ = PlanColumns(all_columns);
}

LgmXExtractor::ColumnPlan LgmXExtractor::PlanColumns(
    const std::vector<size_t>& columns) const {
  const size_t basic = text::BasicSimilarities().size();
  const size_t sortable = text::SortableSimilarities().size();
  const size_t text_block = feature_count() / 2 - 1;  // 43 per attribute
  ColumnPlan plan;
  plan.columns = columns;
  plan.slot.assign(feature_count(), ColumnPlan::kSkip);
  for (size_t k = 0; k < columns.size(); ++k) {
    const size_t c = columns[k];
    if (c >= feature_count()) {
      throw std::out_of_range("LGM-X column " + std::to_string(c) +
                              " is outside the " +
                              std::to_string(feature_count()) +
                              "-column schema");
    }
    if (plan.slot[c] != ColumnPlan::kSkip) {
      throw std::invalid_argument("LGM-X column " + std::to_string(c) +
                                  " is requested twice");
    }
    plan.slot[c] = static_cast<uint32_t>(k);
    if (c >= 2 * text_block) {
      (c == 2 * text_block ? plan.number : plan.geo) = true;
      continue;
    }
    ColumnPlan::Text& needs = plan.text[c / text_block];
    const size_t i = c % text_block;
    if (i < basic) {
      needs.raw |= 1u << i;
    } else if (i < basic + sortable) {
      needs.sorted |= 1u << (i - basic);
      needs.raw |= 1u << sortable_to_basic_[i - basic];
    } else if (i < basic + 2 * sortable) {
      const size_t s = i - basic - sortable;
      needs.lgm |= 1u << s;
      needs.raw |= 1u << sortable_to_basic_[s];
      needs.split = true;
    } else {
      needs.lists = true;
      needs.raw |= 1u << dl_basic_index_;
      needs.split = true;
    }
  }
  return plan;
}

LgmXExtractor LgmXExtractor::FromCorpus(const data::Dataset& dataset,
                                        LgmXOptions options,
                                        lgm::LgmSimConfig config) {
  std::vector<std::string> name_corpus;
  std::vector<std::string> addr_corpus;
  name_corpus.reserve(dataset.size());
  addr_corpus.reserve(dataset.size());
  for (const data::SpatialEntity& e : dataset.entities) {
    if (!e.name.empty()) name_corpus.push_back(text::Normalize(e.name));
    if (!e.address_name.empty()) {
      addr_corpus.push_back(text::Normalize(e.address_name));
    }
  }
  lgm::FrequentTermDictionary::Options dict_options;
  dict_options.min_count = std::max<size_t>(3, dataset.size() / 500);
  return LgmXExtractor(
      lgm::LgmSim(lgm::FrequentTermDictionary::Build(name_corpus,
                                                     dict_options),
                  config),
      lgm::LgmSim(lgm::FrequentTermDictionary::Build(addr_corpus,
                                                     dict_options),
                  config),
      options);
}

void LgmXExtractor::TextFeatures(const lgm::LgmSim& sim,
                                 const ColumnPlan::Text& plan,
                                 const uint32_t* slot,
                                 const std::string& a_norm,
                                 const std::string& a_sorted,
                                 const std::string& b_norm,
                                 const std::string& b_sorted,
                                 double* out) const {
  // k walks the attribute's schema columns; only planned ones are stored.
  size_t k = 0;
  const auto put = [slot, out](size_t column, double value) {
    if (slot[column] != ColumnPlan::kSkip) out[slot[column]] = value;
  };
  // Group (i): basic similarities on the normalized strings. Raw scores
  // are kept on the stack so groups (ii)-(iv) can reuse them by registry
  // position. The pre-sorted measure is Jaro-Winkler over the cached
  // sorted strings — a_sorted IS SortTokens(a_norm), so this is the same
  // value without re-tokenizing per pair.
  const auto& basic = text::BasicSimilarities();
  const text::SimilarityFn jw = basic[jw_basic_index_].fn;
  double raw[kRawBufferCap];
  for (size_t m = 0; m < basic.size(); ++m, ++k) {
    if ((plan.raw >> m & 1u) == 0) continue;
    raw[m] = m == sorted_jw_basic_index_ ? jw(a_sorted, b_sorted)
                                         : basic[m].fn(a_norm, b_norm);
    put(k, raw[m]);
  }
  // Group (ii): the custom-sorting decision of LGM-Sim on top of each
  // sortable measure — sort only when the raw score is unconvincing. The
  // raw score comes from the group-(i) buffer, not a recomputation.
  const double sort_threshold = sim.config().sort_threshold;
  const auto& sortable = text::SortableSimilarities();
  for (size_t s = 0; s < sortable.size(); ++s, ++k) {
    if ((plan.sorted >> s & 1u) == 0) continue;
    const double raw_score = raw[sortable_to_basic_[s]];
    put(k, raw_score >= sort_threshold
               ? raw_score
               : std::max(raw_score, sortable[s].fn(a_sorted, b_sorted)));
  }
  if (!plan.split) return;
  // Groups (iii) and (iv) share one LGM-Sim term split of the pair; each
  // measure's sorting decision reads its group-(i) raw score.
  thread_local lgm::PairSplit split;
  sim.Split(a_norm, a_sorted, b_norm, b_sorted, &split);
  // Group (iii): LGM-Sim meta-similarity on top of each sortable measure.
  for (size_t s = 0; s < sortable.size(); ++s, ++k) {
    if ((plan.lgm >> s & 1u) == 0) continue;
    put(k, sim.ScoreSplit(&split, sortable[s].fn,
                          raw[sortable_to_basic_[s]]));
  }
  if (!plan.lists) return;
  // Group (iv): the three individual list scores, computed with
  // Damerau-Levenshtein as in the paper.
  const lgm::ListScores scores = sim.IndividualScoresSplit(
      &split, text::DamerauLevenshteinSimilarity, raw[dl_basic_index_]);
  put(k, scores.base);
  put(k + 1, scores.mismatch);
  put(k + 2, scores.frequent);
}

LgmXExtractor::EntityText LgmXExtractor::ComputeEntityText(
    const data::SpatialEntity& e) {
  EntityText t;
  t.name_norm = text::Normalize(e.name);
  t.name_sorted = text::SortTokens(t.name_norm);
  t.addr_norm = text::Normalize(e.address_name);
  t.addr_sorted = text::SortTokens(t.addr_norm);
  return t;
}

void LgmXExtractor::RowFromCache(const data::SpatialEntity& a,
                                 const EntityText& ta,
                                 const data::SpatialEntity& b,
                                 const EntityText& tb, double* out) const {
  RowFromCache(a, ta, b, tb, full_plan_, out);
}

void LgmXExtractor::RowFromCache(const data::SpatialEntity& a,
                                 const EntityText& ta,
                                 const data::SpatialEntity& b,
                                 const EntityText& tb, const ColumnPlan& plan,
                                 double* out) const {
  const size_t text_block = feature_count() / 2 - 1;  // 43 per attribute
  // Missing attribute on either side → all its features are 0.
  std::fill(out, out + plan.width(), 0.0);
  const uint32_t* slot = plan.slot.data();
  if (!ta.name_norm.empty() && !tb.name_norm.empty()) {
    TextFeatures(name_sim_, plan.text[0], slot, ta.name_norm, ta.name_sorted,
                 tb.name_norm, tb.name_sorted, out);
  }
  if (!ta.addr_norm.empty() && !tb.addr_norm.empty()) {
    TextFeatures(addr_sim_, plan.text[1], slot + text_block, ta.addr_norm,
                 ta.addr_sorted, tb.addr_norm, tb.addr_sorted, out);
  }
  // Address-number feature: normalized distance of the house numbers.
  if (plan.number && a.address_number >= 0 && b.address_number >= 0) {
    const double delta = std::abs(a.address_number - b.address_number);
    out[slot[2 * text_block]] =
        1.0 - std::min(delta, static_cast<double>(
                                  options_.max_number_delta)) /
                  static_cast<double>(options_.max_number_delta);
  }
  // Spatial feature: normalized Euclidean (great-circle) distance.
  if (plan.geo) {
    const double dist = geo::HaversineMeters(a.location, b.location);
    if (dist >= 0.0) {
      out[slot[2 * text_block + 1]] =
          1.0 - std::min(dist, options_.max_distance_m) /
                    options_.max_distance_m;
    }
  }
}

void LgmXExtractor::ExtractRow(const data::SpatialEntity& a,
                               const data::SpatialEntity& b,
                               double* out) const {
  RowFromCache(a, ComputeEntityText(a), b, ComputeEntityText(b), out);
}

ml::FeatureMatrix LgmXExtractor::Extract(
    const data::Dataset& dataset,
    const std::vector<geo::CandidatePair>& pairs) const {
  return Extract(dataset, pairs, full_plan_);
}

ml::FeatureMatrix LgmXExtractor::Extract(
    const data::Dataset& dataset,
    const std::vector<geo::CandidatePair>& pairs,
    const ColumnPlan& plan) const {
  SKYEX_PHASE("features/extract_lgmx", prof::Phase::kExtraction, nullptr);
  std::vector<std::string> names;
  names.reserve(plan.width());
  for (size_t c : plan.columns) names.push_back(names_[c]);
  ml::FeatureMatrix matrix =
      ml::FeatureMatrix::Zeros(pairs.size(), std::move(names));

  // Cache normalized strings per entity once.
  std::vector<EntityText> cache(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    cache[i] = ComputeEntityText(dataset[i]);
  }

  // Chunks go through the shared pool (warm threads, no per-call spawn);
  // options_.num_threads only caps the fan-out of this call, it never
  // grows the pool. Each row lands in its own matrix slot, so the result
  // is the same at any thread count.
  par::ForOptions for_options;
  for_options.grain = 256;
  for_options.chunking = par::Chunking::kDynamic;
  for_options.max_parallelism = options_.num_threads;
  par::ParallelForChunked(
      0, pairs.size(), for_options, [&](size_t begin, size_t end) {
        SKYEX_SPAN("features/extract_worker");
        for (size_t r = begin; r < end; ++r) {
          const auto [i, j] = pairs[r];
          RowFromCache(dataset[i], cache[i], dataset[j], cache[j], plan,
                       matrix.Row(r));
        }
      });
  SKYEX_COUNTER_ADD("features/rows_extracted", pairs.size());
  return matrix;
}

std::vector<geo::CandidatePair> LgmXExtractor::PrefilterPairs(
    const data::Dataset& dataset,
    const std::vector<geo::CandidatePair>& pairs, double threshold,
    size_t* dropped) const {
  if (dropped != nullptr) *dropped = 0;
  if (threshold <= 0.0 || pairs.empty()) return pairs;
  SKYEX_PHASE("features/prefilter_pairs", prof::Phase::kPrefilter, nullptr);

  // Sketch every entity once (the sketch is an order of magnitude cheaper
  // than one feature row, and amortizes over every pair the entity is in).
  std::vector<EntitySketch> sketches(dataset.size());
  par::ForOptions for_options;
  for_options.grain = 512;
  for_options.max_parallelism = options_.num_threads;
  par::ParallelForChunked(
      0, dataset.size(), for_options, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          sketches[i].name =
              BuildTokenSketch(text::Normalize(dataset[i].name));
          sketches[i].addr =
              BuildTokenSketch(text::Normalize(dataset[i].address_name));
        }
      });

  std::vector<geo::CandidatePair> kept;
  kept.reserve(pairs.size());
  for (const geo::CandidatePair& pair : pairs) {
    if (EstimatePair(sketches[pair.first], sketches[pair.second]) >=
        threshold) {
      kept.push_back(pair);
    }
  }
  const size_t n_dropped = pairs.size() - kept.size();
  if (dropped != nullptr) *dropped = n_dropped;
  SKYEX_COUNTER_ADD("extract/prefilter_dropped", n_dropped);
  return kept;
}

}  // namespace skyex::features
