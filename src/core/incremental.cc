#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/prof.h"
#include "par/parallel_for.h"

namespace skyex::core {

namespace {

/// Fewer candidates than this are scored inline: the pool hand-off only
/// pays for itself on large candidate sets.
constexpr size_t kParallelScoreMinItems = 2048;

}  // namespace

IncrementalLinker::IncrementalLinker(data::Dataset dataset,
                                     features::LgmXExtractor extractor,
                                     SkyExTModel model,
                                     const ml::FeatureMatrix& matrix,
                                     const std::vector<size_t>& accepted_rows,
                                     Options options)
    : dataset_(std::move(dataset)),
      extractor_(std::move(extractor)),
      model_(std::move(model)),
      options_(options),
      grid_(options.radius_m) {
  for (const data::SpatialEntity& e : dataset_.entities) {
    grid_.Insert(e.location);
  }
  const auto compiled =
      model_.preference ? skyline::Compile(*model_.preference)
                        : std::nullopt;
  if (!compiled.has_value()) return;
  // Candidates are scored on the columns the preference reads: the plan
  // computes those, and compiled_ reads each from its plan slot. Every
  // column is bit-identical to the full row's, and the terms keep their
  // order, so every key is too.
  std::string error;
  const std::optional<ProjectedModel> projected =
      ProjectModel(model_, extractor_.feature_count(), &error);
  if (!projected.has_value()) throw std::invalid_argument(error);
  plan_ = extractor_.PlanColumns(projected->columns);
  compiled_ = *compiled;
  for (std::vector<skyline::CompiledPreference::Term>& group :
       compiled_.groups) {
    for (skyline::CompiledPreference::Term& term : group) {
      term.feature = plan_.slot[term.feature];
    }
  }

  // Calibrate the acceptance threshold from the accepted (positively
  // labeled) calibration pairs: a low quantile of their group-sum keys
  // per priority level. This approximates the skyline cut with a scalar
  // boundary that can be checked per arriving pair in O(features) —
  // the streaming trade-off the paper's future-work section hints at.
  if (accepted_rows.empty()) return;
  // The calibration matrix may hold every LGM-X column or only the ones
  // the preference reads (the serving bootstrap extracts just those), so
  // each term finds its column by name.
  skyline::CompiledPreference calibration = *compiled;
  for (std::vector<skyline::CompiledPreference::Term>& group :
       calibration.groups) {
    for (skyline::CompiledPreference::Term& term : group) {
      const int column =
          matrix.ColumnIndex(extractor_.feature_names()[term.feature]);
      if (column < 0) {
        throw std::invalid_argument(
            "calibration matrix lacks feature " +
            std::to_string(term.feature) + " of the model's preference");
      }
      term.feature = static_cast<uint32_t>(column);
    }
  }
  const size_t key_size = compiled_.KeySize();
  std::vector<std::vector<double>> per_group(key_size);
  std::vector<double> key(key_size);
  for (size_t r : accepted_rows) {
    calibration.Key(matrix.Row(r), key.data());
    for (size_t g = 0; g < key_size; ++g) per_group[g].push_back(key[g]);
  }
  threshold_key_.resize(key_size);
  for (size_t g = 0; g < key_size; ++g) {
    std::sort(per_group[g].begin(), per_group[g].end());
    const double q =
        std::clamp(options_.calibration_percentile, 0.0, 0.99);
    const size_t index = static_cast<size_t>(
        q * static_cast<double>(per_group[g].size() - 1));
    threshold_key_[g] = per_group[g][index];
  }
  calibrated_ = true;
}

bool IncrementalLinker::Accept(const double* row, double* key,
                               double* score) const {
  if (!calibrated_) {
    if (score != nullptr) *score = 0.0;
    return false;
  }
  const size_t key_size = compiled_.KeySize();
  compiled_.Key(row, key);
  if (score != nullptr) *score = key_size == 0 ? 0.0 : key[0];
  // The prioritized first group decides; later groups break ties.
  for (size_t g = 0; g < key_size; ++g) {
    if (key[g] > threshold_key_[g]) return true;
    if (key[g] < threshold_key_[g]) return false;
  }
  return true;
}

IncrementalLinker::TextEntry IncrementalLinker::ComputeTextEntry(
    const data::SpatialEntity& e) {
  TextEntry entry;
  entry.text = features::LgmXExtractor::ComputeEntityText(e);
  // EntityText already holds the normalized strings, so the sketches
  // are built without re-normalizing.
  entry.sketch.name = features::BuildTokenSketch(entry.text.name_norm);
  entry.sketch.addr = features::BuildTokenSketch(entry.text.addr_norm);
  return entry;
}

std::shared_ptr<const IncrementalLinker::TextEntry>
IncrementalLinker::GetTextEntry(size_t index, size_t* hits,
                                size_t* misses) const {
  if (options_.text_cache_capacity == 0) {
    ++*misses;
    return std::make_shared<const TextEntry>(ComputeTextEntry(dataset_[index]));
  }
  const auto it = text_lru_index_.find(index);
  if (it != text_lru_index_.end()) {
    ++*hits;
    // Refresh recency: move the hit to the front without reallocating.
    text_lru_.splice(text_lru_.begin(), text_lru_, it->second);
    return it->second->second;
  }
  ++*misses;
  auto entry =
      std::make_shared<const TextEntry>(ComputeTextEntry(dataset_[index]));
  text_lru_.emplace_front(index, entry);
  text_lru_index_[index] = text_lru_.begin();
  if (text_lru_.size() > options_.text_cache_capacity) {
    text_lru_index_.erase(text_lru_.back().first);
    text_lru_.pop_back();
  }
  return entry;
}

std::vector<ScoredMatch> IncrementalLinker::MatchRecord(
    const data::SpatialEntity& record, obs::LinkStats* stats,
    quality::MatchCapture* capture) const {
  SKYEX_SPAN("core/incremental_add");
  const bool audit = capture != nullptr && capture->audit;
  const uint64_t drift_every = capture != nullptr ? capture->drift_every : 0;
  if (audit) capture->threshold_key = threshold_key_;
  const TextEntry record_entry = ComputeTextEntry(record);
  std::vector<size_t> candidates;
  std::vector<std::shared_ptr<const TextEntry>> entries;
  // Sketch estimates of the surviving candidates, kept only for an audit
  // capture (the audit record logs the prefilter verdict with its
  // estimate for scored candidates too).
  std::vector<double> kept_estimates;
  {
    // Candidate set: spatial neighbors when coordinates exist, otherwise
    // everything (bounded). The prefilter phase below nests inside this
    // one, so `extract_us` covers both.
    SKYEX_PHASE("core/incremental_candidates", prof::Phase::kBlocking,
                stats != nullptr ? &stats->extract_us : nullptr);
    if (record.location.valid) {
      size_t tested = 0;
      candidates = grid_.Query(
          record.location,
          [this](size_t i) -> const geo::GeoPoint& {
            return dataset_[i].location;
          },
          &tested);
      SKYEX_COUNTER_ADD("core/incremental_distance_tests", tested);
    } else if (options_.max_cartesian == 0 ||
               dataset_.size() <= options_.max_cartesian) {
      candidates.resize(dataset_.size());
      for (size_t i = 0; i < dataset_.size(); ++i) candidates[i] = i;
    }
    SKYEX_COUNTER_ADD("core/incremental_candidates", candidates.size());
    if (stats != nullptr) stats->candidates += candidates.size();

    // Stage 1: per-candidate text state (through the LRU) and the sketch
    // pre-filter. Both run serially on the calling thread — the cache is
    // unsynchronized by contract — and the gathered shared_ptrs keep
    // every entry alive through the parallel scoring below even if the
    // LRU evicts it meanwhile. With threshold 0 nothing is dropped, so
    // the match set is bit-identical to scoring every candidate.
    SKYEX_PHASE("core/incremental_prefilter", prof::Phase::kPrefilter,
                stats != nullptr ? &stats->prefilter_us : nullptr);
    size_t lru_hits = 0;
    size_t lru_misses = 0;
    entries.reserve(candidates.size());
    for (size_t i : candidates) {
      entries.push_back(GetTextEntry(i, &lru_hits, &lru_misses));
    }
    size_t dropped = 0;
    // With an audit capture, estimates are computed even when the filter
    // is disabled (threshold 0) so every decision logs one; nothing is
    // dropped in that case, so the match set is unchanged.
    if (options_.prefilter_threshold > 0.0 || audit) {
      size_t kept = 0;
      for (size_t k = 0; k < candidates.size(); ++k) {
        const double estimate =
            features::EstimatePair(record_entry.sketch, entries[k]->sketch);
        const bool pass = !(options_.prefilter_threshold > 0.0) ||
                          estimate >= options_.prefilter_threshold;
        if (audit && !pass) {
          quality::CandidateDecision decision;
          decision.candidate_id = dataset_[candidates[k]].id;
          decision.candidate_index = static_cast<uint32_t>(candidates[k]);
          decision.prefilter_pass = false;
          decision.prefilter_estimate = estimate;
          capture->decisions.push_back(std::move(decision));
        }
        if (pass) {
          candidates[kept] = candidates[k];
          entries[kept] = std::move(entries[k]);
          if (audit) kept_estimates.push_back(estimate);
          ++kept;
        }
      }
      dropped = candidates.size() - kept;
      candidates.resize(kept);
      entries.resize(kept);
    }
    SKYEX_COUNTER_ADD("extract/prefilter_dropped", dropped);
    SKYEX_COUNTER_ADD("extract/lru_hits", lru_hits);
    SKYEX_COUNTER_ADD("extract/lru_misses", lru_misses);
    if (stats != nullptr) {
      stats->prefilter_dropped += dropped;
      stats->lru_hits += lru_hits;
      stats->lru_misses += lru_misses;
    }
  }

  // Each chunk scores its candidates on the plan and returns its links
  // plus the decisions the capture keeps, each with its full row;
  // concatenating the chunks in order keeps both in candidate order, so
  // links come out ascending. Scored row k is drift row drift_base + k,
  // so the rows drift observes do not depend on the chunking.
  struct Scored {
    std::vector<ScoredMatch> links;
    std::vector<quality::CandidateDecision> decisions;
  };
  const uint64_t drift_base = drift_rows_;
  const auto observed = [&](size_t k) {
    return drift_every > 0 && (drift_base + k) % drift_every == 0;
  };
  std::vector<ScoredMatch> links;
  {
    SKYEX_PHASE("core/incremental_score", prof::Phase::kExtraction,
                stats != nullptr ? &stats->rank_us : nullptr);
    par::ForOptions for_options;
    for_options.grain = 64;
    for_options.chunking = par::Chunking::kDynamic;
    if (candidates.size() < kParallelScoreMinItems) {
      for_options.max_parallelism = 1;
    }
    Scored scored = par::ParallelReduceOrdered<Scored>(
        0, candidates.size(), for_options,
        [&](size_t begin, size_t end) {
          Scored local;
          std::vector<double> row(plan_.width());
          std::vector<double> key(compiled_.KeySize());
          for (size_t k = begin; k < end; ++k) {
            const size_t i = candidates[k];
            extractor_.RowFromCache(record, record_entry.text, dataset_[i],
                                    entries[k]->text, plan_, row.data());
            double score = 0.0;
            const bool accepted = Accept(row.data(), key.data(), &score);
            if (accepted) local.links.push_back({i, score});
            if (!audit && !observed(k)) continue;
            quality::CandidateDecision decision;
            decision.candidate_id = dataset_[i].id;
            decision.candidate_index = static_cast<uint32_t>(i);
            decision.prefilter_pass = true;
            decision.scored = true;
            decision.accepted = accepted;
            if (audit) decision.prefilter_estimate = kept_estimates[k];
            decision.score = score;
            decision.features.resize(extractor_.feature_count());
            extractor_.RowFromCache(record, record_entry.text, dataset_[i],
                                    entries[k]->text,
                                    decision.features.data());
            local.decisions.push_back(std::move(decision));
          }
          return local;
        },
        [](Scored acc, Scored next) {
          acc.links.insert(acc.links.end(), next.links.begin(),
                           next.links.end());
          acc.decisions.insert(acc.decisions.end(),
                               std::make_move_iterator(next.decisions.begin()),
                               std::make_move_iterator(next.decisions.end()));
          return acc;
        },
        Scored());
    SKYEX_COUNTER_ADD("core/incremental_full_rows", scored.decisions.size());
    if (capture != nullptr) {
      // An audit capture keeps every scored row, so its decision j is
      // scored row j; a drift-only one keeps the observed rows alone.
      const size_t offset = capture->decisions.size();
      for (size_t j = 0; j < scored.decisions.size(); ++j) {
        if (!audit || observed(j)) {
          capture->observed.push_back(static_cast<uint32_t>(offset + j));
        }
      }
      capture->decisions.insert(
          capture->decisions.end(),
          std::make_move_iterator(scored.decisions.begin()),
          std::make_move_iterator(scored.decisions.end()));
    }
    if (drift_every > 0) drift_rows_ += candidates.size();
    links = std::move(scored.links);
  }
  return links;
}

void IncrementalLinker::Append(const data::SpatialEntity& record) {
  dataset_.entities.push_back(record);
  grid_.Insert(record.location);
  SKYEX_COUNTER_INC("core/incremental_records");
}

std::vector<size_t> IncrementalLinker::AddRecord(
    const data::SpatialEntity& record, obs::LinkStats* stats) {
  const std::vector<ScoredMatch> matches = MatchRecord(record, stats);
  Append(record);
  std::vector<size_t> links;
  links.reserve(matches.size());
  for (const ScoredMatch& m : matches) links.push_back(m.index);
  return links;
}

}  // namespace skyex::core
