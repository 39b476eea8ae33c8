#ifndef PERFBENCH_SEQUENCE_H_
#define PERFBENCH_SEQUENCE_H_

// What the HTTP client and the traced replay share, so both send the
// same entities in the same grouping: flag parsing and the entity
// sequence of a serving workload.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/spatial_entity.h"

namespace perfbench {

namespace data = skyex::data;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `--key=value` arguments (a bare `--key` maps to "1").
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0) continue;
      const size_t eq = a.find('=');
      if (eq == std::string::npos) {
        values_.insert_or_assign(a.substr(2), std::string(1, '1'));
      } else {
        values_.insert_or_assign(a.substr(2, eq - 2), a.substr(eq + 1));
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    return Has(key) ? std::stoull(Get(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The entities a serving workload sends, in order: the records of a
/// stream file in file order. Sent once, they keep their own ids; cycled
/// (a re-crawl of the store), they repeat pass after pass under fresh ids
/// above every store id.
class EntitySequence {
 public:
  static EntitySequence Once(std::vector<data::SpatialEntity> records) {
    EntitySequence s;
    s.pool_ = std::move(records);
    s.capacity_ = s.pool_.size();
    return s;
  }

  static EntitySequence Cycle(std::vector<data::SpatialEntity> records,
                              const std::vector<data::SpatialEntity>& store,
                              size_t capacity) {
    EntitySequence s = Once(std::move(records));
    s.fresh_ids_ = true;
    for (const data::SpatialEntity& e : store) {
      s.id_base_ = std::max(s.id_base_, e.id + 1);
    }
    s.capacity_ = s.pool_.empty() ? 0 : capacity;
    return s;
  }

  /// Starts the sequence `entities` further on.
  void Skip(size_t entities) {
    offset_ = entities;
    if (!fresh_ids_) {
      capacity_ = entities < pool_.size() ? pool_.size() - entities : 0;
    }
  }

  /// The k-th entity sent, k < capacity().
  data::SpatialEntity At(size_t k) const {
    data::SpatialEntity e = pool_[(offset_ + k) % pool_.size()];
    if (fresh_ids_) e.id = id_base_ + offset_ + k;
    return e;
  }

  size_t capacity() const { return capacity_; }

 private:
  std::vector<data::SpatialEntity> pool_;
  bool fresh_ids_ = false;
  uint64_t id_base_ = 0;
  size_t offset_ = 0;
  size_t capacity_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEQUENCE_H_
