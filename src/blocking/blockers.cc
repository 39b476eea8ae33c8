#include "blocking/blockers.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "data/ground_truth.h"
#include "geo/distance.h"
#include "obs/metrics.h"
#include "prof/prof.h"
#include "text/normalize.h"
#include "text/tokenize.h"

namespace skyex::blocking {

namespace {

void EmitBlockPairs(const std::vector<size_t>& block,
                    std::vector<geo::CandidatePair>* pairs) {
  for (size_t x = 0; x < block.size(); ++x) {
    for (size_t y = x + 1; y < block.size(); ++y) {
      pairs->emplace_back(std::min(block[x], block[y]),
                          std::max(block[x], block[y]));
    }
  }
}

void SortUnique(std::vector<geo::CandidatePair>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

}  // namespace

std::vector<geo::CandidatePair> TokenBlock(const data::Dataset& dataset,
                                           const TokenBlockOptions& options) {
  SKYEX_PHASE("blocking/token", prof::Phase::kBlocking, nullptr);
  std::unordered_map<std::string, std::vector<size_t>> blocks;
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (std::string& t :
         text::Tokenize(text::Normalize(dataset[i].name))) {
      if (t.size() >= options.min_token_length) {
        blocks[std::move(t)].push_back(i);
      }
    }
    if (options.include_categories) {
      for (const std::string& c : dataset[i].categories) {
        const std::string n = text::Normalize(c);
        if (n.size() >= options.min_token_length) blocks[n].push_back(i);
      }
    }
  }
  std::vector<geo::CandidatePair> pairs;
  for (auto& [token, block] : blocks) {
    // De-duplicate records that contributed the token twice.
    std::sort(block.begin(), block.end());
    block.erase(std::unique(block.begin(), block.end()), block.end());
    if (block.size() < 2 || block.size() > options.max_block_size) continue;
    EmitBlockPairs(block, &pairs);
  }
  SortUnique(&pairs);
  SKYEX_COUNTER_ADD("blocking/candidate_pairs", pairs.size());
  return pairs;
}

std::vector<geo::CandidatePair> SortedNeighborhoodBlock(
    const data::Dataset& dataset,
    const SortedNeighborhoodOptions& options) {
  SKYEX_PHASE("blocking/sorted_neighborhood", prof::Phase::kBlocking,
              nullptr);
  std::vector<geo::CandidatePair> pairs;
  if (dataset.size() < 2 || options.window < 2) return pairs;

  const auto run_pass = [&](bool reversed) {
    std::vector<std::pair<std::string, size_t>> keyed;
    keyed.reserve(dataset.size());
    for (size_t i = 0; i < dataset.size(); ++i) {
      std::string key = text::Normalize(dataset[i].name);
      key.erase(std::remove(key.begin(), key.end(), ' '), key.end());
      if (reversed) std::reverse(key.begin(), key.end());
      keyed.emplace_back(std::move(key), i);
    }
    std::sort(keyed.begin(), keyed.end());
    for (size_t i = 0; i < keyed.size(); ++i) {
      const size_t stop = std::min(i + options.window, keyed.size());
      for (size_t j = i + 1; j < stop; ++j) {
        pairs.emplace_back(std::min(keyed[i].second, keyed[j].second),
                           std::max(keyed[i].second, keyed[j].second));
      }
    }
  };
  run_pass(/*reversed=*/false);
  if (options.passes > 1) run_pass(/*reversed=*/true);
  SortUnique(&pairs);
  SKYEX_COUNTER_ADD("blocking/candidate_pairs", pairs.size());
  return pairs;
}

std::vector<geo::CandidatePair> GridBlock(const data::Dataset& dataset,
                                          const GridBlockOptions& options) {
  SKYEX_PHASE("blocking/grid", prof::Phase::kBlocking, nullptr);
  // Hash records to integer grid cells sized `cell_m`.
  const double lat_step = geo::MetersToLatDegrees(options.cell_m);
  std::unordered_map<int64_t, std::vector<size_t>> cells;
  const auto cell_of = [&](const geo::GeoPoint& p) -> int64_t {
    const double lon_step = geo::MetersToLonDegrees(options.cell_m, p.lat);
    const int64_t row = static_cast<int64_t>(std::floor(p.lat / lat_step));
    const int64_t col = static_cast<int64_t>(std::floor(p.lon / lon_step));
    return (row << 24) ^ (col & 0xFFFFFF);
  };
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (!dataset[i].location.valid) continue;
    cells[cell_of(dataset[i].location)].push_back(i);
  }

  std::vector<geo::CandidatePair> pairs;
  const auto try_pair = [&](size_t i, size_t j) {
    const double d = geo::EquirectangularMeters(dataset[i].location,
                                                dataset[j].location);
    if (d >= 0.0 && d <= options.radius_m) {
      pairs.emplace_back(std::min(i, j), std::max(i, j));
    }
  };
  for (size_t i = 0; i < dataset.size(); ++i) {
    const geo::GeoPoint& p = dataset[i].location;
    if (!p.valid) continue;
    const double lon_step = geo::MetersToLonDegrees(options.cell_m, p.lat);
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        const geo::GeoPoint probe{p.lat + dr * lat_step,
                                  p.lon + dc * lon_step, true};
        const auto it = cells.find(cell_of(probe));
        if (it == cells.end()) continue;
        for (size_t j : it->second) {
          if (j > i) try_pair(i, j);
        }
      }
    }
  }
  SortUnique(&pairs);
  SKYEX_COUNTER_ADD("blocking/candidate_pairs", pairs.size());
  return pairs;
}

BlockingQuality EvaluateBlocking(
    const data::Dataset& dataset,
    const std::vector<geo::CandidatePair>& pairs) {
  BlockingQuality quality;
  quality.candidate_pairs = pairs.size();

  // Total rule-positive pairs without the Cartesian product: group by
  // phone and by website, count within-group pairs, subtract the pairs
  // counted twice (same phone AND same website).
  std::unordered_map<std::string, std::vector<size_t>> by_phone;
  std::unordered_map<std::string, std::vector<size_t>> by_website;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (!dataset[i].phone.empty()) by_phone[dataset[i].phone].push_back(i);
    if (!dataset[i].website.empty()) {
      by_website[dataset[i].website].push_back(i);
    }
  }
  const auto pair_count = [](size_t n) { return n * (n - 1) / 2; };
  size_t total = 0;
  for (const auto& [phone, group] : by_phone) {
    total += pair_count(group.size());
  }
  for (const auto& [site, group] : by_website) {
    total += pair_count(group.size());
    // Subtract pairs that also share a phone (already counted above).
    std::unordered_map<std::string, size_t> phones;
    for (size_t i : group) {
      if (!dataset[i].phone.empty()) ++phones[dataset[i].phone];
    }
    for (const auto& [phone, count] : phones) total -= pair_count(count);
  }
  quality.true_pairs_total = total;

  for (const auto& [i, j] : pairs) {
    if (data::SamePhysicalEntityRule(dataset[i], dataset[j])) {
      ++quality.true_pairs_covered;
    }
  }
  return quality;
}

}  // namespace skyex::blocking
