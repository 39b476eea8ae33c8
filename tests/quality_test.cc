// Linkage-quality observability: audit-log framing and crash
// tolerance, reference-profile round trips, PSI/KS math, the drift
// detector's windows, and the Runtime enable/capture flow.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/spatial_entity.h"
#include "geo/point.h"
#include "ml/dataset_view.h"
#include "quality/audit_log.h"
#include "quality/drift.h"
#include "quality/profile.h"
#include "quality/quality.h"

namespace skyex::quality {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- model hashing ----------------------------------------------------

TEST(QualityHashTest, ModelHashStable) {
  const uint64_t a = HashModelText("skyex model v3\nweights 1 2 3\n");
  const uint64_t b = HashModelText("skyex model v3\nweights 1 2 3\n");
  const uint64_t c = HashModelText("skyex model v3\nweights 1 2 4\n");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 0u);
}

TEST(QualityHashTest, HashHexIsSixteenLowercaseDigits) {
  const std::string hex = HashHex(0xDEADBEEFull);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex, "00000000deadbeef");
  for (char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) << ch;
  }
}

// --- audit-log encode/decode ------------------------------------------

AuditRecord MakeRecord(uint64_t request_id) {
  AuditRecord record;
  record.request_id = request_id;
  record.entity_id = 4200 + request_id;
  record.shard_id = 3;
  record.degraded = false;
  record.model_hash = 0xfeedface12345678ull;
  record.capture.threshold_key = {0.75, 0.5};

  CandidateDecision dropped;
  dropped.candidate_id = 11;
  dropped.candidate_index = 0;
  dropped.prefilter_pass = false;
  dropped.scored = false;
  dropped.prefilter_estimate = 0.02;
  record.capture.decisions.push_back(dropped);

  CandidateDecision scored;
  scored.candidate_id = 12;
  scored.candidate_index = 5;
  scored.prefilter_pass = true;
  scored.scored = true;
  scored.accepted = true;
  scored.prefilter_estimate = 0.9;
  // A score with a busy mantissa: round trips must preserve the bits.
  scored.score = 0.1 + 0.2;
  scored.features = {0.25, 1.0 / 3.0, 0.0, 1.0};
  record.capture.decisions.push_back(scored);
  return record;
}

std::string FullLog(const AuditLogHeader& header,
                    const std::vector<AuditRecord>& records) {
  std::string bytes = EncodeAuditHeader(header);
  for (const AuditRecord& record : records) {
    bytes += EncodeAuditRecord(record);
  }
  return bytes;
}

TEST(AuditLogTest, HeaderRoundTrip) {
  AuditLogHeader header;
  header.feature_count = 23;
  header.model_hash = 0x00af9c0102030405ull;
  const std::string line = EncodeAuditHeader(header);
  EXPECT_EQ(line, "skyexaudit v1 features=23 model=00af9c0102030405\n");

  AuditLogHeader decoded;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  ASSERT_TRUE(DecodeAuditLog(line, &decoded, &records, &stats, &error))
      << error;
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_EQ(decoded.feature_count, 23u);
  EXPECT_EQ(decoded.model_hash, header.model_hash);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
}

TEST(AuditLogTest, RejectsGarbageHeader) {
  AuditLogHeader header;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  EXPECT_FALSE(DecodeAuditLog("not an audit log\n", &header, &records, &stats,
                              &error));
  EXPECT_NE(error.find("header"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(DecodeAuditLog("no newline at all", &header, &records, &stats,
                              &error));
  EXPECT_FALSE(error.empty());
}

TEST(AuditLogTest, RecordRoundTripPreservesEverything) {
  AuditLogHeader header;
  header.feature_count = 4;
  header.model_hash = 0xfeedface12345678ull;
  const AuditRecord original = MakeRecord(7);
  const std::string bytes = FullLog(header, {original});

  AuditLogHeader decoded_header;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  ASSERT_TRUE(
      DecodeAuditLog(bytes, &decoded_header, &records, &stats, &error))
      << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.torn_tail_bytes, 0u);

  const AuditRecord& r = records[0];
  EXPECT_EQ(r.request_id, original.request_id);
  EXPECT_EQ(r.entity_id, original.entity_id);
  EXPECT_EQ(r.shard_id, original.shard_id);
  EXPECT_EQ(r.degraded, original.degraded);
  EXPECT_EQ(r.model_hash, original.model_hash);
  EXPECT_EQ(r.capture.threshold_key, original.capture.threshold_key);
  ASSERT_EQ(r.capture.decisions.size(), 2u);
  EXPECT_FALSE(r.capture.decisions[0].prefilter_pass);
  EXPECT_FALSE(r.capture.decisions[0].scored);
  EXPECT_TRUE(r.capture.decisions[0].features.empty());
  const CandidateDecision& scored = r.capture.decisions[1];
  EXPECT_TRUE(scored.prefilter_pass);
  EXPECT_TRUE(scored.scored);
  EXPECT_TRUE(scored.accepted);
  EXPECT_EQ(scored.candidate_index, 5u);
  EXPECT_EQ(scored.features, original.capture.decisions[1].features);
  // Bit-exact, not approximately-equal: replay depends on it.
  EXPECT_EQ(std::memcmp(&scored.score, &original.capture.decisions[1].score,
                        sizeof(double)),
            0);
}

TEST(AuditLogTest, DegradedRecordRoundTrips) {
  AuditLogHeader header;
  header.feature_count = 4;
  AuditRecord record;
  record.request_id = 99;
  record.entity_id = 1;
  record.degraded = true;
  const std::string bytes = FullLog(header, {record});

  AuditLogHeader decoded_header;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  ASSERT_TRUE(
      DecodeAuditLog(bytes, &decoded_header, &records, &stats, &error));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].degraded);
  EXPECT_TRUE(records[0].capture.decisions.empty());
}

// The crash-tolerance contract, exhaustively: truncate a two-record log
// at EVERY byte offset. The reader must never fail, must recover every
// record whose frame is fully intact, and must report the remainder as
// a torn tail.
TEST(AuditLogTest, TruncationAtEveryByteRecoversIntactPrefix) {
  AuditLogHeader header;
  header.feature_count = 4;
  header.model_hash = 0x1234ull;
  const std::string head = EncodeAuditHeader(header);
  const std::string frame1 = EncodeAuditRecord(MakeRecord(1));
  const std::string frame2 = EncodeAuditRecord(MakeRecord(2));
  const std::string bytes = head + frame1 + frame2;

  const size_t end1 = head.size() + frame1.size();
  for (size_t cut = head.size(); cut <= bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, cut);
    AuditLogHeader decoded;
    std::vector<AuditRecord> records;
    AuditReadStats stats;
    std::string error;
    ASSERT_TRUE(
        DecodeAuditLog(truncated, &decoded, &records, &stats, &error))
        << "cut=" << cut << ": " << error;
    size_t expected = 0;
    if (cut >= bytes.size()) {
      expected = 2;
    } else if (cut >= end1) {
      expected = 1;
    }
    EXPECT_EQ(records.size(), expected) << "cut=" << cut;
    const size_t intact =
        head.size() + (expected >= 1 ? frame1.size() : 0) +
        (expected >= 2 ? frame2.size() : 0);
    EXPECT_EQ(stats.torn_tail_bytes, cut - intact) << "cut=" << cut;
    if (expected >= 1) {
      EXPECT_EQ(records[0].request_id, 1u) << "cut=" << cut;
    }
  }
}

TEST(AuditLogTest, CorruptPayloadByteStopsAtChecksum) {
  AuditLogHeader header;
  header.feature_count = 4;
  const std::string head = EncodeAuditHeader(header);
  const std::string frame1 = EncodeAuditRecord(MakeRecord(1));
  const std::string frame2 = EncodeAuditRecord(MakeRecord(2));
  std::string bytes = head + frame1 + frame2;
  // Flip one payload byte inside the FIRST record (past its 16-byte
  // frame header): both records must be refused — the second because a
  // reader cannot trust frame boundaries after a corrupt frame.
  bytes[head.size() + 16 + 3] ^= 0x40;

  AuditLogHeader decoded;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  ASSERT_TRUE(DecodeAuditLog(bytes, &decoded, &records, &stats, &error));
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.torn_tail_bytes, frame1.size() + frame2.size());
}

TEST(AuditLogTest, TrailingGarbageIsATornTail) {
  AuditLogHeader header;
  header.feature_count = 4;
  const std::string frame = EncodeAuditRecord(MakeRecord(1));
  const std::string bytes =
      EncodeAuditHeader(header) + frame + "garbage after the last frame";

  AuditLogHeader decoded;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  std::string error;
  ASSERT_TRUE(DecodeAuditLog(bytes, &decoded, &records, &stats, &error));
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.torn_tail_bytes, std::strlen("garbage after the last frame"));
}

// --- the asynchronous writer ------------------------------------------

TEST(AuditWriterTest, WritesReadableLogWithCounters) {
  const std::string path = TempPath("skyex_quality_writer.bin");
  AuditWriterOptions options;
  options.path = path;
  options.sample_every = 2;
  AuditLogHeader header;
  header.feature_count = 4;
  header.model_hash = 0xabcdull;

  AuditWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(options, header, &error)) << error;
  EXPECT_TRUE(writer.open());

  int captured = 0;
  for (int i = 0; i < 10; ++i) {
    if (writer.ShouldSample()) {
      writer.Append(MakeRecord(static_cast<uint64_t>(i)));
      ++captured;
    }
  }
  writer.Flush();
  EXPECT_EQ(writer.attempts(), 10u);
  EXPECT_EQ(writer.sampled(), static_cast<uint64_t>(captured));
  EXPECT_EQ(writer.written(), static_cast<uint64_t>(captured));
  EXPECT_EQ(writer.dropped(), 0u);
  EXPECT_EQ(captured, 5);  // every 2nd of 10
  writer.Close();
  EXPECT_FALSE(writer.open());
  writer.Close();  // idempotent

  AuditLogHeader decoded;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  ASSERT_TRUE(ReadAuditLog(path, &decoded, &records, &stats, &error)) << error;
  EXPECT_EQ(decoded.model_hash, 0xabcdull);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(records[0].request_id, 0u);
  EXPECT_EQ(records[4].request_id, 8u);
}

TEST(AuditWriterTest, ClosedWriterDropsAndCounts) {
  AuditWriter writer;
  EXPECT_FALSE(writer.ShouldSample());
  writer.Append(MakeRecord(1));
  EXPECT_EQ(writer.dropped(), 1u);
}

TEST(AuditWriterTest, OpenFailsOnUnwritablePath) {
  AuditWriter writer;
  AuditWriterOptions options;
  options.path = TempPath("no_such_dir") + "/sub/audit.bin";
  std::string error;
  EXPECT_FALSE(writer.Open(options, AuditLogHeader{}, &error));
  EXPECT_NE(error.find("cannot create"), std::string::npos) << error;
}

// --- reference profile ------------------------------------------------

data::SpatialEntity MakeEntity(uint64_t id, double lat, double lon,
                               const std::string& name) {
  data::SpatialEntity entity;
  entity.id = id;
  entity.name = name;
  entity.location = geo::GeoPoint{lat, lon, true};
  return entity;
}

data::Dataset MakeDataset(double lat0, const std::string& suffix) {
  data::Dataset dataset;
  // Coordinates cycle with a short period so ANY contiguous entity
  // window sees the same lat/lon distribution the whole corpus has —
  // a monotone ramp would make each window a genuine regional shift.
  for (int i = 0; i < 40; ++i) {
    dataset.entities.push_back(MakeEntity(
        static_cast<uint64_t>(i + 1), lat0 + 0.01 * (i % 10),
        10.0 + 0.01 * ((i * 3) % 10),
        "Cafe " + std::to_string(i % 7) + suffix));
  }
  return dataset;
}

ml::FeatureMatrix MakeMatrix(size_t rows, double base) {
  ml::FeatureMatrix matrix = ml::FeatureMatrix::Zeros(
      rows, {"name_sim", "geo_prox", "phone_sim"});
  for (size_t r = 0; r < rows; ++r) {
    matrix.Row(r)[0] = base + 0.4 * (static_cast<double>(r % 10) / 10.0);
    matrix.Row(r)[1] = 0.5;
    matrix.Row(r)[2] = static_cast<double>(r % 2);
  }
  return matrix;
}

std::vector<double> MakeScores(const ml::FeatureMatrix& matrix) {
  std::vector<double> scores(matrix.rows, 0.0);
  for (size_t r = 0; r < matrix.rows; ++r) {
    scores[r] = matrix.At(r, 0) + matrix.At(r, 1);
  }
  return scores;
}

TEST(ProfileTest, HistogramClampsAndIgnoresNan) {
  ProfileHistogram hist;
  hist.Init(0.0, 1.0, 4);
  hist.Add(-5.0);  // clamps to bin 0
  hist.Add(0.3);
  hist.Add(0.99);
  hist.Add(7.0);                                       // clamps to last bin
  hist.Add(std::numeric_limits<double>::quiet_NaN());  // ignored
  EXPECT_EQ(hist.total, 4u);
  EXPECT_EQ(hist.counts[0], 1u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.counts[3], 2u);
  const ProfileHistogram clone = hist.EmptyClone();
  EXPECT_EQ(clone.counts.size(), hist.counts.size());
  EXPECT_EQ(clone.total, 0u);
  EXPECT_EQ(clone.lo, hist.lo);
  EXPECT_EQ(clone.hi, hist.hi);
}

TEST(ProfileTest, PsiNearZeroForMatchingAndLargeForShifted) {
  ProfileHistogram reference;
  reference.Init(0.0, 1.0, 10);
  for (int i = 0; i < 1000; ++i) reference.Add((i % 10) / 10.0 + 0.05);

  ProfileHistogram same = reference.EmptyClone();
  for (int i = 0; i < 500; ++i) same.Add((i % 10) / 10.0 + 0.05);
  EXPECT_LT(Psi(reference, same), 0.01);

  ProfileHistogram shifted = reference.EmptyClone();
  for (int i = 0; i < 500; ++i) shifted.Add(0.95);  // all mass in one bin
  EXPECT_GT(Psi(reference, shifted), 1.0);

  ProfileHistogram empty = reference.EmptyClone();
  EXPECT_EQ(Psi(reference, empty), 0.0);
}

TEST(ProfileTest, KsStatisticBounds) {
  ProfileHistogram reference;
  reference.Init(0.0, 1.0, 10);
  for (int i = 0; i < 1000; ++i) reference.Add((i % 10) / 10.0 + 0.05);

  ProfileHistogram same = reference.EmptyClone();
  for (int i = 0; i < 300; ++i) same.Add((i % 10) / 10.0 + 0.05);
  EXPECT_LT(KsStatistic(reference, same), 0.05);

  ProfileHistogram shifted = reference.EmptyClone();
  for (int i = 0; i < 300; ++i) shifted.Add(0.95);
  const double ks = KsStatistic(reference, shifted);
  EXPECT_GT(ks, 0.8);
  EXPECT_LE(ks, 1.0);
}

TEST(ProfileTest, BuildSaveLoadRoundTrip) {
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(100, 0.2);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, 0xc0ffeeull);
  EXPECT_EQ(profile.features.size(), 3u);
  EXPECT_EQ(profile.score.total, 100u);
  EXPECT_EQ(profile.entity_lat.total, 40u);
  EXPECT_EQ(profile.entity_name_len.total, 40u);

  const std::string text = SaveProfile(profile);
  EXPECT_NE(text.find("skyex_profile_version: 1"), std::string::npos);
  EXPECT_NE(text.find("model_hash: 0000000000c0ffee"), std::string::npos);

  std::string error;
  const std::optional<ReferenceProfile> loaded = LoadProfile(text, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->model_hash, profile.model_hash);
  ASSERT_EQ(loaded->features.size(), profile.features.size());
  for (size_t f = 0; f < profile.features.size(); ++f) {
    EXPECT_EQ(loaded->features[f].counts, profile.features[f].counts) << f;
    EXPECT_DOUBLE_EQ(loaded->features[f].lo, profile.features[f].lo);
    EXPECT_DOUBLE_EQ(loaded->features[f].hi, profile.features[f].hi);
  }
  EXPECT_EQ(loaded->score.counts, profile.score.counts);
  EXPECT_EQ(loaded->entity_lat.counts, profile.entity_lat.counts);
  EXPECT_EQ(loaded->entity_lon.counts, profile.entity_lon.counts);
  EXPECT_EQ(loaded->entity_name_len.counts, profile.entity_name_len.counts);

  // Round trip through a file as well.
  const std::string path = TempPath("skyex_quality_profile.txt");
  ASSERT_TRUE(SaveProfileToFile(profile, path));
  const std::optional<ReferenceProfile> from_file =
      LoadProfileFromFile(path, &error);
  ASSERT_TRUE(from_file.has_value()) << error;
  EXPECT_EQ(SaveProfile(*from_file), text);
}

TEST(ProfileTest, LoadRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(LoadProfile("definitely not a profile", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// --- drift detector ---------------------------------------------------

TEST(DriftDetectorTest, MatchingTrafficStaysCalm) {
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(200, 0.2);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, 1);

  DriftOptions options;
  options.window = 50;
  options.entity_window = 20;
  options.row_sample_every = 1;
  DriftDetector detector(profile, options);

  for (size_t r = 0; r < matrix.rows; ++r) {
    detector.ObserveRow(matrix.Row(r), matrix.cols, scores[r]);
  }
  for (const data::SpatialEntity& entity : dataset.entities) {
    detector.ObserveEntity(entity);
  }
  const DriftDetector::Stats& stats = detector.stats();
  EXPECT_EQ(stats.row_windows, 4u);     // 200 rows / window 50
  EXPECT_EQ(stats.entity_windows, 2u);  // 40 entities / window 20
  EXPECT_EQ(stats.trips, 0u);
  EXPECT_FALSE(stats.drifting);
  EXPECT_LT(stats.psi_feature_max, 0.25);
  EXPECT_LT(stats.ks_score, 0.25);
  EXPECT_LT(stats.psi_name_len, 0.25);
}

TEST(DriftDetectorTest, ShiftedFeatureTripsRowWindow) {
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(200, 0.1);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, 1);

  DriftOptions options;
  options.window = 50;
  options.entity_window = 1000;  // keep the entity window out of the way
  options.row_sample_every = 1;
  DriftDetector detector(profile, options);

  // Live rows concentrated far from the training distribution.
  const ml::FeatureMatrix drifted = MakeMatrix(50, 0.55);
  for (size_t r = 0; r < drifted.rows; ++r) {
    detector.ObserveRow(drifted.Row(r), drifted.cols, 2.0);
  }
  const DriftDetector::Stats& stats = detector.stats();
  EXPECT_EQ(stats.row_windows, 1u);
  EXPECT_GE(stats.trips, 1u);
  EXPECT_TRUE(stats.drifting);
  EXPECT_GT(stats.psi_feature_max, 0.25);
  EXPECT_GE(stats.psi_feature_argmax, 0);
}

TEST(DriftDetectorTest, ShiftedEntitiesTripEntityWindow) {
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(100, 0.2);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, 1);

  DriftOptions options;
  options.window = 1000;
  options.entity_window = 40;
  DriftDetector detector(profile, options);

  // Same coordinates, much longer names: psi_name_len must move.
  const data::Dataset drifted =
      MakeDataset(57.0, " with a dramatically longer suffix attached");
  for (const data::SpatialEntity& entity : drifted.entities) {
    detector.ObserveEntity(entity);
  }
  const DriftDetector::Stats& stats = detector.stats();
  EXPECT_EQ(stats.entity_windows, 1u);
  EXPECT_GE(stats.trips, 1u);
  EXPECT_GT(stats.psi_name_len, 0.25);
}

TEST(DriftDetectorTest, MismatchedRowWidthIgnored) {
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(100, 0.2);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, 1);

  DriftDetector detector(profile, DriftOptions{});
  const double row[1] = {0.5};
  detector.ObserveRow(row, 1, 0.5);  // profile has 3 features
  EXPECT_EQ(detector.stats().rows_pending, 0u);
}

TEST(ProfileTest, EntityNameLengthTracksName) {
  const data::SpatialEntity a = MakeEntity(1, 57.0, 10.0, "Cafe");
  const data::SpatialEntity b =
      MakeEntity(2, 57.0, 10.0, "Cafe With A Much Longer Name");
  EXPECT_GT(EntityNameLength(b), EntityNameLength(a));
}

// --- the runtime ------------------------------------------------------

TEST(QualityRuntimeTest, EnableCaptureDisable) {
  Runtime& runtime = Runtime::Global();
  runtime.Disable();  // clean slate whatever ran before

  const std::string model_text = "skyex test model text\n";
  const uint64_t model_hash = HashModelText(model_text);

  // Train-side artifacts: a profile whose hash matches the model.
  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(100, 0.2);
  const std::vector<double> scores = MakeScores(matrix);
  const ReferenceProfile profile =
      BuildReferenceProfile(dataset, matrix, scores, model_hash);
  const std::string profile_path = TempPath("skyex_quality_rt_profile.txt");
  ASSERT_TRUE(SaveProfileToFile(profile, profile_path));

  QualityOptions options;
  options.audit.path = TempPath("skyex_quality_rt_audit.bin");
  options.audit.sample_every = 1;
  options.profile_path = profile_path;
  options.drift.window = 50;
  options.drift.entity_window = 10;
  options.drift.row_sample_every = 1;

  std::string error;
  ASSERT_TRUE(runtime.Enable(options, model_text, matrix.cols,
                             matrix.names, &error))
      << error;
  EXPECT_TRUE(runtime.enabled());
  EXPECT_TRUE(runtime.audit_enabled());
  EXPECT_TRUE(runtime.drift_enabled());

  // Capture one decision and feed some entities. The runtime asks for
  // the audit trail and every drift row; the capture below is what the
  // linker would return, its one scored row marked observed.
  MatchCapture capture;
  ASSERT_TRUE(runtime.ShouldCapture(&capture));
  EXPECT_TRUE(capture.audit);
  EXPECT_EQ(capture.drift_every, 1u);
  capture.threshold_key = {0.7};
  CandidateDecision decision;
  decision.candidate_id = 5;
  decision.prefilter_pass = true;
  decision.scored = true;
  decision.accepted = false;
  decision.score = 0.42;
  decision.features = {0.2, 0.5, 1.0};
  capture.decisions.push_back(decision);
  capture.observed = {0};
  const data::SpatialEntity entity = MakeEntity(77, 57.1, 10.1, "Cafe 1");
  runtime.ObserveEntity(entity);
  runtime.RecordCapture(entity, 2, std::move(capture));
  runtime.RecordDegraded(entity, 2);
  runtime.Flush();

  const Runtime::Snapshot snap = runtime.snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.model_hash, model_hash);
  EXPECT_EQ(snap.attempts, 1u);
  EXPECT_EQ(snap.sampled, 1u);
  EXPECT_EQ(snap.written, 2u);  // the capture + the degraded record
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.drift_stats.entities_pending, 1u);
  EXPECT_EQ(snap.drift_stats.rows_pending, 1u);

  std::ostringstream json;
  runtime.WriteDebugJson(json);
  const std::string body = json.str();
  EXPECT_NE(body.find("\"enabled\": true"), std::string::npos) << body;
  EXPECT_NE(body.find(HashHex(model_hash)), std::string::npos) << body;

  runtime.Disable();
  EXPECT_FALSE(runtime.enabled());
  EXPECT_FALSE(runtime.ShouldCapture());

  // The audit log on disk holds both records, replayable.
  AuditLogHeader header;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
  ASSERT_TRUE(ReadAuditLog(options.audit.path, &header, &records, &stats,
                           &error))
      << error;
  EXPECT_EQ(header.model_hash, model_hash);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].entity_id, 77u);
  EXPECT_EQ(records[0].shard_id, 2u);
  EXPECT_FALSE(records[0].degraded);
  ASSERT_EQ(records[0].capture.decisions.size(), 1u);
  EXPECT_EQ(records[0].capture.decisions[0].features.size(), 3u);
  EXPECT_TRUE(records[1].degraded);
}

TEST(QualityRuntimeTest, EnableRefusesMismatchedProfileHash) {
  Runtime& runtime = Runtime::Global();
  runtime.Disable();

  const data::Dataset dataset = MakeDataset(57.0, "");
  const ml::FeatureMatrix matrix = MakeMatrix(50, 0.2);
  const ReferenceProfile profile = BuildReferenceProfile(
      dataset, matrix, MakeScores(matrix), /*model_hash=*/0x1111ull);
  const std::string path = TempPath("skyex_quality_mismatch_profile.txt");
  ASSERT_TRUE(SaveProfileToFile(profile, path));

  QualityOptions options;
  options.profile_path = path;
  std::string error;
  EXPECT_FALSE(runtime.Enable(options, "a different model", matrix.cols,
                              matrix.names, &error));
  EXPECT_NE(error.find("built for model"), std::string::npos) << error;
  EXPECT_FALSE(runtime.enabled());
}

TEST(QualityRuntimeTest, DisabledRuntimeIsInert) {
  Runtime& runtime = Runtime::Global();
  runtime.Disable();
  EXPECT_FALSE(runtime.ShouldCapture());
  runtime.ObserveEntity(MakeEntity(1, 57.0, 10.0, "x"));  // must not crash
  runtime.RecordDegraded(MakeEntity(1, 57.0, 10.0, "x"), 0);
  const Runtime::Snapshot snap = runtime.snapshot();
  EXPECT_FALSE(snap.enabled);
}

}  // namespace
}  // namespace skyex::quality
