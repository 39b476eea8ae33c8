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

LinkService::DegradedEntry LinkService::MakeDegradedEntry(
    const data::SpatialEntity& e) {
  DegradedEntry entry;
  entry.id = e.id;
  entry.source = std::string(data::SourceName(e.source));
  entry.name = e.name;
  entry.normalized_name = text::Normalize(e.name);
  entry.location = e.location;
  return entry;
}

LinkService::LinkService(core::IncrementalLinker linker,
                         std::string model_text,
                         DegradedOptions degraded_options)
    : linker_(std::move(linker)),
      model_text_(std::move(model_text)),
      degraded_options_(degraded_options) {
  const data::Dataset& dataset = linker_.dataset();
  degraded_index_.reserve(dataset.size());
  for (const data::SpatialEntity& e : dataset.entities) {
    degraded_index_.push_back(MakeDegradedEntry(e));
  }
}

std::vector<LinkResult> LinkService::LinkMany(
    const std::vector<data::SpatialEntity>& entities,
    LinkBatchStats* stats) {
  SKYEX_SPAN("serve/link_batch");
  std::vector<LinkResult> results;
  results.reserve(entities.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const data::SpatialEntity& entity : entities) {
      LinkResult result;
      // Linkage-quality hooks (no-ops until skyex_serve enables the
      // quality runtime): entity-level drift observation for every
      // request, full decision capture for sampled ones.
      quality::Runtime& quality_runtime = quality::Runtime::Global();
      quality_runtime.ObserveEntity(entity);
      quality::MatchCapture capture;
      const bool capturing = quality_runtime.ShouldCapture();
      std::vector<core::ScoredMatch> matches = linker_.MatchRecord(
          entity, stats, capturing ? &capture : nullptr);
      if (capturing) {
        quality_runtime.RecordCapture(entity, shard_id_, std::move(capture));
      }
      linker_.Append(entity);
      const data::Dataset& dataset = linker_.dataset();
      result.record_index = dataset.size() - 1;
      // Rank exactly like the shard router's gather, so `--shards=1`
      // serializes the same bytes as this path.
      std::sort(matches.begin(), matches.end(),
                [&dataset](const core::ScoredMatch& a,
                           const core::ScoredMatch& b) {
                  return LinkRankBefore(a.score, dataset[a.index].id, a.index,
                                        b.score, dataset[b.index].id, b.index);
                });
      result.links.reserve(matches.size());
      std::vector<const data::SpatialEntity*> cluster;
      cluster.reserve(matches.size() + 1);
      for (const core::ScoredMatch& m : matches) {
        result.links.push_back(LinkedRecord{
            m.index, dataset[m.index].id, dataset[m.index].name,
            std::string(data::SourceName(dataset[m.index].source))});
        cluster.push_back(&dataset[m.index]);
      }
      cluster.push_back(&dataset[result.record_index]);
      result.merged = core::MergeRecords(cluster);
      SKYEX_COUNTER_INC("serve/link_requests");
      SKYEX_COUNTER_ADD("serve/linked_records", matches.size());
      results.push_back(std::move(result));
    }
  }
  // Mirror the new records into the degraded index outside the linker
  // lock, so degraded readers only ever contend on this short append.
  {
    std::lock_guard<std::mutex> lock(degraded_mutex_);
    for (const data::SpatialEntity& entity : entities) {
      degraded_index_.push_back(MakeDegradedEntry(entity));
    }
  }
  return results;
}

std::vector<ScoredLink> LinkService::MatchScored(
    const data::SpatialEntity& entity, bool persist,
    obs::LinkStats* stats) {
  SKYEX_SPAN("serve/match_scored");
  std::vector<ScoredLink> links;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Shard-path quality hooks. Entity drift is observed on the owner
    // only (persist == true) so a scatter to k shards counts once.
    quality::Runtime& quality_runtime = quality::Runtime::Global();
    if (persist) quality_runtime.ObserveEntity(entity);
    quality::MatchCapture capture;
    const bool capturing = quality_runtime.ShouldCapture();
    const std::vector<core::ScoredMatch> matches =
        linker_.MatchRecord(entity, stats, capturing ? &capture : nullptr);
    if (capturing) {
      quality_runtime.RecordCapture(entity, shard_id_, std::move(capture));
    }
    const data::Dataset& dataset = linker_.dataset();
    links.reserve(matches.size());
    for (const core::ScoredMatch& m : matches) {
      links.push_back(ScoredLink{m.index, m.score, dataset[m.index]});
    }
    if (persist) linker_.Append(entity);
  }
  if (persist) {
    std::lock_guard<std::mutex> lock(degraded_mutex_);
    degraded_index_.push_back(MakeDegradedEntry(entity));
  }
  return links;
}

std::vector<LinkResult> LinkService::LinkDegraded(
    const std::vector<data::SpatialEntity>& entities) const {
  SKYEX_SPAN("serve/link_degraded");
  std::vector<LinkResult> results;
  results.reserve(entities.size());
  std::lock_guard<std::mutex> lock(degraded_mutex_);
  for (const data::SpatialEntity& entity : entities) {
    // Degraded answers audit as decision-less records: the entity was
    // served but the model never scored it.
    quality::Runtime& quality_runtime = quality::Runtime::Global();
    quality_runtime.ObserveEntity(entity);
    if (quality_runtime.ShouldCapture()) {
      quality_runtime.RecordDegraded(entity, shard_id_);
    }
    LinkResult result;
    result.degraded = true;
    // Where the record *would* land; nothing is actually appended.
    result.record_index = degraded_index_.size();
    const std::string normalized = text::Normalize(entity.name);
    for (size_t i = 0; i < degraded_index_.size(); ++i) {
      const DegradedEntry& entry = degraded_index_[i];
      if (entity.location.valid && entry.location.valid &&
          geo::HaversineMeters(entity.location, entry.location) >
              degraded_options_.radius_m) {
        continue;
      }
      const double f_sim =
          text::JaroWinklerSimilarity(normalized, entry.normalized_name);
      if (f_sim >= degraded_options_.f_sim_threshold) {
        result.links.push_back(
            LinkedRecord{i, entry.id, entry.name, entry.source});
      }
    }
    result.merged = entity;
    SKYEX_COUNTER_INC("serve/degraded_links");
    results.push_back(std::move(result));
  }
  return results;
}

size_t LinkService::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return linker_.dataset().size();
}

namespace {

/// Global calibration shared by both bootstrap paths: validated model,
/// full-corpus extractor, feature matrix over the blocked pairs, and
/// the accepted (positively labeled) rows the acceptance threshold is
/// calibrated from. Computed ONCE on the full dataset even when serving
/// sharded, so every shard links with the same decision boundary.
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
  // feature indices beyond the LGM-X schema; serving it would read out
  // of bounds on every request. Reject it here, once.
  std::vector<size_t> used_features;
  model.preference->CollectFeatures(&used_features);
  const size_t schema_width = features::LgmXFeatureCount();
  for (size_t feature : used_features) {
    if (feature >= schema_width) {
      if (error != nullptr) {
        *error = "model references feature index " +
                 std::to_string(feature) + " but the LGM-X schema has " +
                 std::to_string(schema_width) + " features";
      }
      return false;
    }
  }
  const char* blocker = nullptr;
  const std::vector<geo::CandidatePair> pairs =
      geo::BlockPoints(dataset.Points(), &blocker);
  out->extractor = features::LgmXExtractor::FromCorpus(dataset);
  out->features = out->extractor->Extract(dataset, pairs);
  const std::vector<size_t> all_rows = core::AllRows(pairs.size());
  const std::vector<uint8_t> predicted =
      core::SkyExT::Label(out->features, all_rows, model);
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
    data::Dataset slice;
    slice.entities.reserve(partition.size());
    for (size_t i : partition) slice.entities.push_back(dataset[i]);
    // Every shard gets the full-corpus extractor and the globally
    // calibrated threshold; only the record partition differs.
    core::IncrementalLinker linker(std::move(slice), *cal.extractor,
                                   CloneModel(model), cal.features,
                                   cal.accepted, options);
    services.push_back(
        std::make_unique<LinkService>(std::move(linker), text));
    services.back()->set_shard_id(
        static_cast<uint32_t>(services.size() - 1));
  }
  return services;
}

}  // namespace skyex::serve
