#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/linker.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/csv.h"
#include "features/feature_schema.h"
#include "geo/distance.h"
#include "geo/quadflex.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quality/quality.h"
#include "text/jaro.h"
#include "text/normalize.h"

namespace skyex::serve {

namespace {

bool ParseSourceName(const std::string& text, data::Source* out) {
  for (int s = 0; s <= static_cast<int>(data::Source::kZagat); ++s) {
    const auto source = static_cast<data::Source>(s);
    if (text == data::SourceName(source)) {
      *out = source;
      return true;
    }
  }
  return false;
}

const obs::json::Value* FindTyped(const obs::json::Value& object,
                                  std::string_view key,
                                  obs::json::Value::Type type) {
  const obs::json::Value* v = object.Find(key);
  return v != nullptr && v->type == type ? v : nullptr;
}

}  // namespace

bool ParseEntityJson(const obs::json::Value& value,
                     data::SpatialEntity* out, std::string* error) {
  using Type = obs::json::Value::Type;
  if (!value.is_object()) {
    *error = "entity must be a JSON object";
    return false;
  }
  *out = data::SpatialEntity{};
  out->location = geo::GeoPoint::Invalid();

  // Text fields are repaired to valid UTF-8 (U+FFFD for bad bytes), as
  // CSV loading does, so responses never echo raw invalid bytes.
  const obs::json::Value* name = FindTyped(value, "name", Type::kString);
  if (name == nullptr || name->string_v.empty()) {
    *error = "entity needs a non-empty string field 'name'";
    return false;
  }
  out->name = data::SanitizeUtf8(name->string_v);

  // Numbers are range-checked as doubles before any cast: converting a
  // negative, infinite (`1e400` parses to inf) or out-of-range double to
  // an integer type is undefined behaviour.
  if (const auto* v = FindTyped(value, "id", Type::kNumber)) {
    if (!(v->number_v >= 0.0 && v->number_v < 0x1p64)) {
      *error = "id out of range";
      return false;
    }
    out->id = static_cast<uint64_t>(v->number_v);
  }
  if (const obs::json::Value* v = value.Find("source")) {
    if (v->is_string()) {
      if (!ParseSourceName(v->string_v, &out->source)) {
        *error = "unknown source '" + data::SanitizeUtf8(v->string_v) + "'";
        return false;
      }
    } else if (v->is_number()) {
      if (!(v->number_v >= 0.0 &&
            v->number_v < static_cast<int>(data::Source::kZagat) + 1)) {
        *error = "source index out of range";
        return false;
      }
      out->source = static_cast<data::Source>(static_cast<int>(v->number_v));
    } else {
      *error = "source must be a string or an integer";
      return false;
    }
  }
  if (const auto* v = FindTyped(value, "address_name", Type::kString)) {
    out->address_name = data::SanitizeUtf8(v->string_v);
  }
  if (const auto* v = FindTyped(value, "address_number", Type::kNumber)) {
    if (!(v->number_v >= std::numeric_limits<int>::min() &&
          v->number_v <= std::numeric_limits<int>::max())) {
      *error = "address_number out of range";
      return false;
    }
    out->address_number = static_cast<int>(v->number_v);
  }
  if (const auto* v = FindTyped(value, "city", Type::kString)) {
    out->city = data::SanitizeUtf8(v->string_v);
  }
  if (const auto* v = FindTyped(value, "phone", Type::kString)) {
    out->phone = data::SanitizeUtf8(v->string_v);
  }
  if (const auto* v = FindTyped(value, "website", Type::kString)) {
    out->website = data::SanitizeUtf8(v->string_v);
  }
  if (const auto* v = FindTyped(value, "categories", Type::kArray)) {
    for (const auto& item : v->array_v) {
      if (!item.is_string()) {
        *error = "categories must be an array of strings";
        return false;
      }
      out->categories.push_back(data::SanitizeUtf8(item.string_v));
    }
  }
  const auto* lat = FindTyped(value, "lat", Type::kNumber);
  const auto* lon = FindTyped(value, "lon", Type::kNumber);
  if ((lat == nullptr) != (lon == nullptr)) {
    *error = "lat and lon must be given together";
    return false;
  }
  if (lat != nullptr) {
    // NaN fails every range comparison, so check finiteness explicitly
    // — a NaN coordinate must not slip into the spatial index.
    if (!std::isfinite(lat->number_v) || !std::isfinite(lon->number_v)) {
      *error = "lat/lon must be finite";
      return false;
    }
    if (lat->number_v < -90.0 || lat->number_v > 90.0 ||
        lon->number_v < -180.0 || lon->number_v > 180.0) {
      *error = "lat/lon out of range";
      return false;
    }
    out->location = geo::GeoPoint{lat->number_v, lon->number_v, true};
  }
  return true;
}

void WriteEntityJson(json::Writer* writer, const data::SpatialEntity& e) {
  writer->BeginObject();
  writer->Key("id").Uint(e.id);
  writer->Key("source").String(data::SourceName(e.source));
  writer->Key("name").String(e.name);
  if (!e.address_name.empty()) {
    writer->Key("address_name").String(e.address_name);
  }
  if (e.address_number >= 0) {
    writer->Key("address_number").Int(e.address_number);
  }
  if (!e.city.empty()) writer->Key("city").String(e.city);
  if (!e.phone.empty()) writer->Key("phone").String(e.phone);
  if (!e.website.empty()) writer->Key("website").String(e.website);
  if (!e.categories.empty()) {
    writer->Key("categories").BeginArray();
    for (const auto& c : e.categories) writer->String(c);
    writer->EndArray();
  }
  if (e.location.valid) {
    writer->Key("lat").Number(e.location.lat);
    writer->Key("lon").Number(e.location.lon);
  }
  writer->EndObject();
}

void WriteLinkResultJson(json::Writer* writer, const LinkResult& result,
                         const std::string* request_id) {
  writer->BeginObject();
  if (request_id != nullptr) {
    writer->Key("request_id").String(*request_id);
  }
  writer->Key("record_index").Uint(result.record_index);
  if (result.degraded) writer->Key("degraded").Bool(true);
  writer->Key("links").BeginArray();
  for (const LinkedRecord& link : result.links) {
    writer->BeginObject();
    writer->Key("record").Uint(link.record);
    writer->Key("id").Uint(link.id);
    writer->Key("name").String(link.name);
    writer->Key("source").String(link.source);
    writer->EndObject();
  }
  writer->EndArray();
  writer->Key("merged");
  WriteEntityJson(writer, result.merged);
  writer->EndObject();
}

LinkResult RankAndMerge(const data::SpatialEntity& entity,
                        size_t record_index, std::vector<ScoredLink> links) {
  std::sort(links.begin(), links.end(),
            [](const ScoredLink& a, const ScoredLink& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.snapshot.id != b.snapshot.id) {
                return a.snapshot.id < b.snapshot.id;
              }
              return a.record < b.record;
            });
  LinkResult result;
  result.record_index = record_index;
  result.links.reserve(links.size());
  std::vector<const data::SpatialEntity*> cluster;
  cluster.reserve(links.size() + 1);
  for (const ScoredLink& link : links) {
    result.links.push_back(LinkedRecord{
        link.record, link.snapshot.id, link.snapshot.name,
        std::string(data::SourceName(link.snapshot.source))});
    cluster.push_back(&link.snapshot);
  }
  cluster.push_back(&entity);
  result.merged = core::MergeRecords(cluster);
  return result;
}

RecordIndexMap::RecordIndexMap(const std::vector<size_t>& global_of_local) {
  while (identity_ < global_of_local.size() &&
         global_of_local[identity_] == identity_) {
    ++identity_;
  }
  rest_.assign(global_of_local.begin() +
                   static_cast<std::ptrdiff_t>(identity_),
               global_of_local.end());
}

void RecordIndexMap::Append(size_t global) {
  if (rest_.empty() && global == identity_) {
    ++identity_;
  } else {
    rest_.push_back(global);
  }
}

LinkService::LinkService(core::IncrementalLinker linker,
                         std::string model_text)
    : linker_(std::move(linker)),
      model_text_(std::move(model_text)),
      index_({}),
      own_next_index_(linker_.dataset().size()),
      next_index_(&own_next_index_) {
  for (size_t i = 0; i < linker_.dataset().size(); ++i) index_.Append(i);
}

void LinkService::ShareIndexSpace(const std::vector<size_t>& global_of_local,
                                  std::atomic<size_t>* next_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_lock<std::shared_mutex> records_lock(records_mutex_);
  index_ = RecordIndexMap(global_of_local);
  next_index_ = next_index;
}

std::vector<LinkResult> LinkService::LinkMany(
    const std::vector<data::SpatialEntity>& entities,
    LinkBatchStats* stats) {
  SKYEX_SPAN("serve/link_batch");
  std::vector<LinkResult> results;
  results.reserve(entities.size());
  for (const data::SpatialEntity& entity : entities) {
    size_t record_index = 0;
    std::vector<ScoredLink> links =
        MatchScored(entity, /*persist=*/true, stats, &record_index);
    results.push_back(RankAndMerge(entity, record_index, std::move(links)));
    SKYEX_COUNTER_INC("serve/link_requests");
    SKYEX_COUNTER_ADD("serve/linked_records", results.back().links.size());
  }
  return results;
}

std::vector<ScoredLink> LinkService::MatchScored(
    const data::SpatialEntity& entity, bool persist, obs::LinkStats* stats,
    size_t* record_index) {
  SKYEX_SPAN("serve/match_scored");
  std::lock_guard<std::mutex> lock(mutex_);
  // Linkage-quality hooks (no-ops until skyex_serve enables the quality
  // runtime): entity-level drift observation, and for sampled attempts a
  // capture of what the runtime keeps (the audit trail, the drift rows).
  // Entity drift is observed where the entity is persisted only, so a
  // scatter to k shards counts once.
  quality::Runtime& quality_runtime = quality::Runtime::Global();
  if (persist) quality_runtime.ObserveEntity(entity);
  quality::MatchCapture capture;
  const bool capturing = quality_runtime.ShouldCapture(&capture);
  const std::vector<core::ScoredMatch> matches =
      linker_.MatchRecord(entity, stats, capturing ? &capture : nullptr);
  if (capturing) {
    quality_runtime.RecordCapture(entity, shard_id_, std::move(capture));
  }
  // index_ changes only under this mutex too, so no records lock here.
  const data::Dataset& dataset = linker_.dataset();
  std::vector<ScoredLink> links;
  links.reserve(matches.size());
  for (const core::ScoredMatch& m : matches) {
    links.push_back(
        ScoredLink{index_.Global(m.index), m.score, dataset[m.index]});
  }
  if (persist) {
    std::unique_lock<std::shared_mutex> records_lock(records_mutex_);
    linker_.Append(entity);
    const size_t global =
        next_index_->fetch_add(1, std::memory_order_relaxed);
    index_.Append(global);
    if (record_index != nullptr) *record_index = global;
  }
  return links;
}

std::vector<LinkResult> LinkService::LinkDegraded(
    const std::vector<data::SpatialEntity>& entities) const {
  SKYEX_SPAN("serve/link_degraded");
  std::vector<LinkResult> results;
  results.reserve(entities.size());
  for (const data::SpatialEntity& entity : entities) {
    LinkResult result;
    result.degraded = true;
    // Candidates are copied out under the records lock and their names
    // scored after it is released, so an append never waits on scoring.
    std::vector<LinkedRecord> candidates;
    {
      std::shared_lock<std::shared_mutex> lock(records_mutex_);
      const data::Dataset& records = linker_.dataset();
      // Where it *would* land.
      result.record_index = next_index_->load(std::memory_order_relaxed);
      for (size_t i : linker_.grid().HaversineCandidates(entity.location,
                                                         kDegradedRadiusM)) {
        const data::SpatialEntity& record = records[i];
        // -1 when either side lacks coordinates: the name decides alone.
        if (geo::HaversineMeters(entity.location, record.location) >
            kDegradedRadiusM) {
          continue;
        }
        candidates.push_back(
            LinkedRecord{index_.Global(i), record.id, record.name,
                         std::string(data::SourceName(record.source))});
      }
    }
    const std::string normalized = text::Normalize(entity.name);
    for (LinkedRecord& candidate : candidates) {
      if (text::JaroWinklerSimilarity(normalized,
                                      text::Normalize(candidate.name)) >=
          kDegradedNameSimilarity) {
        result.links.push_back(std::move(candidate));
      }
    }
    result.merged = entity;
    SKYEX_COUNTER_INC("serve/degraded_links");
    results.push_back(std::move(result));
  }
  return results;
}

size_t LinkService::record_count() const {
  std::shared_lock<std::shared_mutex> lock(records_mutex_);
  return linker_.dataset().size();
}

namespace {

/// Global calibration shared by both bootstrap paths: validated model,
/// full-corpus extractor, the features of the blocked pairs, and the
/// accepted (positively labeled) rows the acceptance threshold is
/// calibrated from. Computed ONCE on the full dataset even when serving
/// sharded, so every shard links with the same decision boundary. The
/// matrix holds only the columns the model's preference reads; the
/// linker finds them by name.
struct Calibration {
  std::optional<features::LgmXExtractor> extractor;
  ml::FeatureMatrix features;
  std::vector<size_t> accepted;
};

bool Calibrate(const data::Dataset& dataset, const core::SkyExTModel& model,
               Calibration* out, std::string* error) {
  if (model.preference == nullptr ||
      !skyline::Compile(*model.preference).has_value()) {
    if (error != nullptr) *error = "model preference is missing or invalid";
    return false;
  }
  // A corrupt or mismatched model may parse cleanly yet reference
  // feature indices beyond the LGM-X schema; ProjectModel rejects it.
  const std::optional<core::ProjectedModel> projected =
      core::ProjectModel(model, features::LgmXFeatureCount(), error);
  if (!projected.has_value()) return false;
  const char* blocker = nullptr;
  const std::vector<geo::CandidatePair> pairs =
      geo::BlockPoints(dataset.Points(), &blocker);
  out->extractor = features::LgmXExtractor::FromCorpus(dataset);
  out->features = out->extractor->Extract(
      dataset, pairs, out->extractor->PlanColumns(projected->columns));
  const std::vector<size_t> all_rows = core::AllRows(pairs.size());
  const std::vector<uint8_t> predicted =
      core::SkyExT::Label(out->features, all_rows, projected->model);
  for (size_t r = 0; r < predicted.size(); ++r) {
    if (predicted[r]) out->accepted.push_back(r);
  }
  if (out->accepted.empty()) {
    if (error != nullptr) {
      *error = "model accepts no pair of the dataset; cannot calibrate";
    }
    return false;
  }
  SKYEX_LOG_INFO("serve/bootstrap", "calibrated incremental linker",
                 {"records", dataset.size()}, {"pairs", pairs.size()},
                 {"columns", projected->columns.size()},
                 {"accepted_pairs", out->accepted.size()},
                 {"blocker", blocker});
  return true;
}

/// Deep copy — SkyExTModel owns its preference tree.
core::SkyExTModel CloneModel(const core::SkyExTModel& model) {
  core::SkyExTModel copy;
  copy.preference = model.preference->Clone();
  copy.cutoff_ratio = model.cutoff_ratio;
  copy.group1 = model.group1;
  copy.group2 = model.group2;
  copy.train_f1 = model.train_f1;
  return copy;
}

}  // namespace

std::unique_ptr<LinkService> BootstrapLinkService(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options, std::string* error) {
  SKYEX_SPAN("serve/bootstrap");
  Calibration cal;
  if (!Calibrate(dataset, model, &cal, error)) return nullptr;
  std::string model_text = core::SaveModel(model);
  core::IncrementalLinker linker(std::move(dataset),
                                 std::move(*cal.extractor), std::move(model),
                                 cal.features, cal.accepted, options);
  return std::make_unique<LinkService>(std::move(linker),
                                       std::move(model_text));
}

std::vector<std::unique_ptr<LinkService>> BootstrapShardedLinkServices(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options,
    const std::vector<std::vector<size_t>>& partitions,
    std::string* model_text, std::string* error) {
  SKYEX_SPAN("serve/bootstrap_sharded");
  Calibration cal;
  if (!Calibrate(dataset, model, &cal, error)) return {};
  const std::string text = core::SaveModel(model);
  if (model_text != nullptr) *model_text = text;
  std::vector<std::unique_ptr<LinkService>> services;
  services.reserve(partitions.size());
  for (const std::vector<size_t>& partition : partitions) {
    // Records move into their one partition; a copy would leave the
    // heap holding the store twice while the shards are built.
    data::Dataset slice;
    slice.entities.reserve(partition.size());
    for (size_t i : partition) {
      slice.entities.push_back(std::move(dataset.entities[i]));
    }
    // Every shard gets the full-corpus extractor and the globally
    // calibrated threshold; only the record partition differs. The last
    // shard takes the calibration's own extractor and model.
    const bool last = services.size() + 1 == partitions.size();
    core::IncrementalLinker linker(
        std::move(slice),
        last ? std::move(*cal.extractor) : *cal.extractor,
        last ? std::move(model) : CloneModel(model), cal.features,
        cal.accepted, options);
    services.push_back(
        std::make_unique<LinkService>(std::move(linker), text));
    services.back()->set_shard_id(
        static_cast<uint32_t>(services.size() - 1));
  }
  return services;
}

}  // namespace skyex::serve
