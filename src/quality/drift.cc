#include "quality/drift.h"

#include <utility>

namespace skyex::quality {

DriftDetector::DriftDetector(ReferenceProfile profile, DriftOptions options)
    : profile_(std::move(profile)), options_(options) {
  if (options_.window == 0) options_.window = 1;
  if (options_.entity_window == 0) options_.entity_window = 1;
  feature_window_.reserve(profile_.features.size());
  for (const ProfileHistogram& hist : profile_.features) {
    feature_window_.push_back(hist.EmptyClone());
  }
  score_window_ = profile_.score.EmptyClone();
  lat_window_ = profile_.entity_lat.EmptyClone();
  lon_window_ = profile_.entity_lon.EmptyClone();
  name_len_window_ = profile_.entity_name_len.EmptyClone();
}

void DriftDetector::ObserveEntity(const data::SpatialEntity& entity) {
  if (entity.location.valid) {
    lat_window_.Add(entity.location.lat);
    lon_window_.Add(entity.location.lon);
  }
  name_len_window_.Add(EntityNameLength(entity));
  ++entities_in_window_;
  stats_.entities_pending = entities_in_window_;
  if (entities_in_window_ >= options_.entity_window) EvaluateEntityWindow();
}

void DriftDetector::ObserveRow(const double* row, size_t n, double score) {
  if (n != feature_window_.size()) return;
  for (size_t c = 0; c < n; ++c) feature_window_[c].Add(row[c]);
  score_window_.Add(score);
  ++rows_in_window_;
  stats_.rows_pending = rows_in_window_;
  if (rows_in_window_ >= options_.window) EvaluateRowWindow();
}

void DriftDetector::EvaluateRowWindow() {
  double psi_max = 0.0;
  int argmax = -1;
  for (size_t c = 0; c < feature_window_.size(); ++c) {
    const double psi = Psi(profile_.features[c], feature_window_[c]);
    if (psi > psi_max) {
      psi_max = psi;
      argmax = static_cast<int>(c);
    }
  }
  stats_.psi_feature_max = psi_max;
  stats_.psi_feature_argmax = argmax;
  stats_.ks_score = KsStatistic(profile_.score, score_window_);
  ++stats_.row_windows;
  stats_.drifting = psi_max > options_.psi_threshold ||
                    stats_.ks_score > options_.ks_threshold;
  if (stats_.drifting) ++stats_.trips;

  for (ProfileHistogram& hist : feature_window_) hist = hist.EmptyClone();
  score_window_ = score_window_.EmptyClone();
  rows_in_window_ = 0;
  stats_.rows_pending = 0;
}

void DriftDetector::EvaluateEntityWindow() {
  stats_.psi_lat = Psi(profile_.entity_lat, lat_window_);
  stats_.psi_lon = Psi(profile_.entity_lon, lon_window_);
  stats_.psi_name_len = Psi(profile_.entity_name_len, name_len_window_);
  ++stats_.entity_windows;
  stats_.drifting = stats_.psi_lat > options_.psi_threshold ||
                    stats_.psi_lon > options_.psi_threshold ||
                    stats_.psi_name_len > options_.psi_threshold;
  if (stats_.drifting) ++stats_.trips;

  lat_window_ = lat_window_.EmptyClone();
  lon_window_ = lon_window_.EmptyClone();
  name_len_window_ = name_len_window_.EmptyClone();
  entities_in_window_ = 0;
  stats_.entities_pending = 0;
}

}  // namespace skyex::quality
