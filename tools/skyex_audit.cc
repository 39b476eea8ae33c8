// skyex_audit — offline inspection and replay of decision audit logs
// (quality/audit_log.h; written by skyex_serve --audit-log).
//
//   skyex_audit dump   --log=FILE [--limit=N] [--features]
//   skyex_audit replay --log=FILE --model=FILE.txt [--labels=FILE.csv]
//   skyex_audit diff   --log=FILE --model-a=A.txt --model-b=B.txt
//
// `dump` prints the header and one JSON line per record. `replay`
// re-runs every logged decision against a model: when the model hashes
// match the log, scores and accept/reject verdicts are recomputed from
// the logged feature vectors and checked BIT-IDENTICAL against what the
// server decided (exit 1 on any divergence); when the model is a newer
// one, the logged rows are re-labeled under it (SkyExT ranking
// semantics) and the decision changes are reported. `--labels` (a CSV
// with id_a/id_b columns, e.g. skyex apply's matches.csv) additionally
// scores the decisions as precision/recall/F1 against ground truth.
// `diff` re-labels the logged rows under two models and reports where
// they disagree, decision by decision.
//
// Torn tails (a server killed mid-write) are reported, never fatal —
// every intact record replays.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/model_io.h"
#include "core/skyex_t.h"
#include "eval/metrics.h"
#include "features/feature_schema.h"
#include "flags.h"
#include "quality/audit_log.h"
#include "skyline/preference.h"

namespace {

using skyex::quality::AuditLogHeader;
using skyex::quality::AuditReadStats;
using skyex::quality::AuditRecord;
using skyex::tools::FlagType;
using skyex::tools::Flags;

int Usage() {
  std::fprintf(
      stderr,
      "usage: skyex_audit <command> --log=FILE [flags]\n\n"
      "commands:\n"
      "  dump    --log=FILE [--limit=N] [--features]\n"
      "          header + one JSON line per record (--features includes\n"
      "          the logged feature vectors)\n"
      "  replay  --log=FILE --model=FILE.txt [--labels=FILE.csv]\n"
      "          same model: recompute every logged decision and check\n"
      "          it bit-identical (exit 1 on divergence); newer model:\n"
      "          re-label the logged rows and report what changes.\n"
      "          --labels scores decisions as P/R/F1 against a CSV with\n"
      "          id_a/id_b columns (e.g. skyex apply's matches.csv)\n"
      "  diff    --log=FILE --model-a=A.txt --model-b=B.txt\n"
      "          re-label the logged rows under both models and report\n"
      "          decision-level disagreements\n");
  return 2;
}

struct LoadedLog {
  AuditLogHeader header;
  std::vector<AuditRecord> records;
  AuditReadStats stats;
};

std::optional<LoadedLog> LoadLog(const std::string& path) {
  LoadedLog log;
  std::string error;
  if (!skyex::quality::ReadAuditLog(path, &log.header, &log.records,
                                    &log.stats, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  std::fprintf(stderr,
               "skyex_audit: %s — model=%s features=%u, %zu records",
               path.c_str(),
               skyex::quality::HashHex(log.header.model_hash).c_str(),
               log.header.feature_count, log.stats.records);
  if (log.stats.torn_tail_bytes > 0) {
    std::fprintf(stderr, " (+%zu torn tail bytes)",
                 log.stats.torn_tail_bytes);
  }
  std::fprintf(stderr, "\n");
  return log;
}

void JsonDoubleList(std::ostringstream& out,
                    const std::vector<double>& values) {
  out << '[';
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    out << buf;
  }
  out << ']';
}

int CmdDump(const Flags& flags, const LoadedLog& log) {
  const size_t limit = flags.GetSize("limit", 0);
  const bool with_features = flags.Has("features");
  std::printf("{\"version\":%u,\"features\":%u,\"model\":\"%s\","
              "\"records\":%zu,\"torn_tail_bytes\":%zu}\n",
              log.header.version, log.header.feature_count,
              skyex::quality::HashHex(log.header.model_hash).c_str(),
              log.stats.records, log.stats.torn_tail_bytes);
  size_t shown = 0;
  for (const AuditRecord& record : log.records) {
    if (limit > 0 && shown >= limit) break;
    ++shown;
    std::ostringstream out;
    out << "{\"request_id\":\""
        << skyex::quality::HashHex(record.request_id) << "\",\"entity_id\":"
        << record.entity_id << ",\"shard_id\":" << record.shard_id
        << ",\"degraded\":" << (record.degraded ? "true" : "false")
        << ",\"model\":\"" << skyex::quality::HashHex(record.model_hash)
        << "\",\"threshold_key\":";
    JsonDoubleList(out, record.capture.threshold_key);
    out << ",\"decisions\":[";
    for (size_t d = 0; d < record.capture.decisions.size(); ++d) {
      const auto& decision = record.capture.decisions[d];
      if (d > 0) out << ',';
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"candidate\":%" PRIu64 ",\"index\":%u,"
                    "\"prefilter\":%s,\"estimate\":%.6g",
                    decision.candidate_id, decision.candidate_index,
                    decision.prefilter_pass ? "true" : "false",
                    decision.prefilter_estimate);
      out << buf;
      if (decision.scored) {
        std::snprintf(buf, sizeof(buf), ",\"score\":%.17g,\"accepted\":%s",
                      decision.score, decision.accepted ? "true" : "false");
        out << buf;
        if (with_features) {
          out << ",\"features\":";
          JsonDoubleList(out, decision.features);
        }
      }
      out << '}';
    }
    out << "]}";
    std::printf("%s\n", out.str().c_str());
  }
  return 0;
}

/// Ground-truth pairs from a CSV with id_a/id_b columns (unordered).
std::optional<std::set<std::pair<uint64_t, uint64_t>>> LoadLabels(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string line;
  if (!std::getline(file, line)) {
    std::fprintf(stderr, "error: %s is empty\n", path.c_str());
    return std::nullopt;
  }
  const auto split = [](const std::string& text) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (char c : text) {
      if (c == '"') {
        quoted = !quoted;
      } else if (c == ',' && !quoted) {
        fields.push_back(field);
        field.clear();
      } else {
        field += c;
      }
    }
    fields.push_back(field);
    return fields;
  };
  const std::vector<std::string> header = split(line);
  int col_a = -1;
  int col_b = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "id_a") col_a = static_cast<int>(i);
    if (header[i] == "id_b") col_b = static_cast<int>(i);
  }
  if (col_a < 0 || col_b < 0) {
    std::fprintf(stderr, "error: %s needs id_a and id_b columns\n",
                 path.c_str());
    return std::nullopt;
  }
  std::set<std::pair<uint64_t, uint64_t>> pairs;
  size_t line_no = 1;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line);
    if (static_cast<int>(fields.size()) <= std::max(col_a, col_b)) {
      std::fprintf(stderr, "error: %s line %zu: too few fields\n",
                   path.c_str(), line_no);
      return std::nullopt;
    }
    const uint64_t a = std::strtoull(fields[col_a].c_str(), nullptr, 10);
    const uint64_t b = std::strtoull(fields[col_b].c_str(), nullptr, 10);
    pairs.emplace(std::min(a, b), std::max(a, b));
  }
  return pairs;
}

/// One replayable decision: where it lives in the log plus its row
/// index in the gathered feature matrix.
struct ScoredRef {
  size_t record = 0;
  size_t decision = 0;
  size_t row = 0;
};

/// Gathers every scored decision's feature vector into one matrix.
bool GatherRows(const LoadedLog& log, skyex::ml::FeatureMatrix* matrix,
                std::vector<ScoredRef>* refs) {
  matrix->cols = log.header.feature_count;
  matrix->names = skyex::features::LgmXFeatureNames();
  if (matrix->names.size() != matrix->cols) {
    // A log from a different schema version: keep the columns unnamed.
    matrix->names.assign(matrix->cols, "");
  }
  for (size_t r = 0; r < log.records.size(); ++r) {
    const auto& decisions = log.records[r].capture.decisions;
    for (size_t d = 0; d < decisions.size(); ++d) {
      if (!decisions[d].scored) continue;
      if (decisions[d].features.size() != matrix->cols) {
        std::fprintf(stderr,
                     "error: record %zu decision %zu has %zu features, "
                     "header says %zu\n",
                     r, d, decisions[d].features.size(), matrix->cols);
        return false;
      }
      refs->push_back({r, d, matrix->rows});
      matrix->values.insert(matrix->values.end(),
                            decisions[d].features.begin(),
                            decisions[d].features.end());
      ++matrix->rows;
    }
  }
  return true;
}

/// P/R/F1 of accept verdicts against ground-truth pairs, over every
/// logged candidate decision (prefilter-dropped candidates count as
/// rejections).
void ReportAgainstLabels(
    const LoadedLog& log, const std::vector<ScoredRef>& refs,
    const std::vector<uint8_t>& accepted_rows,
    const std::set<std::pair<uint64_t, uint64_t>>& truth) {
  skyex::eval::ConfusionMatrix cm;
  // Scored decisions take their verdict from accepted_rows (logged or
  // replayed); everything else in the log is a rejection.
  std::set<std::pair<size_t, size_t>> scored;
  for (const ScoredRef& ref : refs) {
    scored.emplace(ref.record, ref.decision);
  }
  const auto is_true = [&truth](uint64_t a, uint64_t b) {
    return truth.count({std::min(a, b), std::max(a, b)}) > 0;
  };
  for (const ScoredRef& ref : refs) {
    const AuditRecord& record = log.records[ref.record];
    const auto& decision = record.capture.decisions[ref.decision];
    const bool positive = accepted_rows[ref.row] != 0;
    const bool matches = is_true(record.entity_id, decision.candidate_id);
    if (positive && matches) ++cm.tp;
    if (positive && !matches) ++cm.fp;
    if (!positive && matches) ++cm.fn;
    if (!positive && !matches) ++cm.tn;
  }
  for (size_t r = 0; r < log.records.size(); ++r) {
    const auto& decisions = log.records[r].capture.decisions;
    for (size_t d = 0; d < decisions.size(); ++d) {
      if (scored.count({r, d}) > 0) continue;
      if (is_true(log.records[r].entity_id, decisions[d].candidate_id)) {
        ++cm.fn;
      } else {
        ++cm.tn;
      }
    }
  }
  std::printf("against labels: %s\n", cm.ToString().c_str());
}

/// A model may parse yet read a feature index past the logged rows:
/// refuse it before labelling, with skyex_serve's message.
bool ModelFitsRows(const skyex::core::SkyExTModel& model,
                   const skyex::ml::FeatureMatrix& matrix) {
  std::string error;
  if (skyex::core::ProjectModel(model, matrix.cols, &error).has_value()) {
    return true;
  }
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return false;
}

/// The serving-time accept rule (core/incremental.h): the prioritized
/// first key group decides, later groups break ties, all-equal accepts.
bool AcceptAgainstThreshold(const std::vector<double>& key,
                            const std::vector<double>& threshold) {
  for (size_t g = 0; g < key.size() && g < threshold.size(); ++g) {
    if (key[g] > threshold[g]) return true;
    if (key[g] < threshold[g]) return false;
  }
  return true;
}

int CmdReplay(const Flags& flags, const LoadedLog& log) {
  const std::string model_path = flags.Get("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "error: replay needs --model\n");
    return 2;
  }
  skyex::core::ModelIoError model_error;
  const auto model =
      skyex::core::LoadModelFromFile(model_path, &model_error);
  if (!model.has_value()) {
    std::fprintf(stderr, "error: cannot load model %s: %s\n",
                 model_path.c_str(), model_error.message.c_str());
    return 1;
  }
  const uint64_t model_hash =
      skyex::quality::HashModelText(skyex::core::SaveModel(*model));

  skyex::ml::FeatureMatrix matrix;
  std::vector<ScoredRef> refs;
  if (!GatherRows(log, &matrix, &refs)) return 1;
  if (!ModelFitsRows(*model, matrix)) return 1;

  std::optional<std::set<std::pair<uint64_t, uint64_t>>> truth;
  const std::string labels_path = flags.Get("labels");
  if (!labels_path.empty()) {
    truth = LoadLabels(labels_path);
    if (!truth.has_value()) return 1;
  }

  if (model_hash == log.header.model_hash) {
    // Same model: every logged decision must reproduce bit-identically
    // from the logged feature vector and threshold key alone.
    const std::optional<skyex::skyline::CompiledPreference> compiled =
        model->preference != nullptr
            ? skyex::skyline::Compile(*model->preference)
            : std::nullopt;
    if (!compiled.has_value()) {
      std::fprintf(stderr, "error: model has no usable preference\n");
      return 1;
    }
    std::vector<double> key(compiled->KeySize());
    std::vector<uint8_t> accepted(matrix.rows, 0);
    size_t score_mismatches = 0;
    size_t verdict_mismatches = 0;
    for (const ScoredRef& ref : refs) {
      const AuditRecord& record = log.records[ref.record];
      const auto& decision = record.capture.decisions[ref.decision];
      compiled->Key(matrix.Row(ref.row), key.data());
      const double score = key.empty() ? 0.0 : key[0];
      if (std::memcmp(&score, &decision.score, sizeof(double)) != 0) {
        if (++score_mismatches <= 5) {
          std::fprintf(stderr,
                       "replay: record %zu candidate %" PRIu64
                       ": score %.17g, log says %.17g\n",
                       ref.record, decision.candidate_id, score,
                       decision.score);
        }
      }
      const bool accept =
          AcceptAgainstThreshold(key, record.capture.threshold_key);
      accepted[ref.row] = accept ? 1 : 0;
      if (accept != decision.accepted) {
        if (++verdict_mismatches <= 5) {
          std::fprintf(stderr,
                       "replay: record %zu candidate %" PRIu64
                       ": verdict %s, log says %s\n",
                       ref.record, decision.candidate_id,
                       accept ? "accept" : "reject",
                       decision.accepted ? "accept" : "reject");
        }
      }
    }
    std::printf("replayed %zu decisions across %zu records: "
                "%zu score mismatches, %zu verdict mismatches%s\n",
                refs.size(), log.records.size(), score_mismatches,
                verdict_mismatches,
                score_mismatches + verdict_mismatches == 0
                    ? " — bit-identical"
                    : "");
    if (truth.has_value()) {
      ReportAgainstLabels(log, refs, accepted, *truth);
    }
    return score_mismatches + verdict_mismatches == 0 ? 0 : 1;
  }

  // Different model: re-label the logged rows under it (the model's own
  // cutoff-ratio ranking semantics, not the serving threshold key) and
  // report how the decisions move.
  std::printf("model %s differs from log model %s — re-labeling %zu "
              "logged rows\n",
              skyex::quality::HashHex(model_hash).c_str(),
              skyex::quality::HashHex(log.header.model_hash).c_str(),
              matrix.rows);
  std::vector<size_t> rows(matrix.rows);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<uint8_t> relabeled =
      skyex::core::SkyExT::Label(matrix, rows, *model);
  size_t agree = 0;
  size_t gained = 0;  // rejected in the log, accepted now
  size_t lost = 0;    // accepted in the log, rejected now
  for (const ScoredRef& ref : refs) {
    const auto& decision =
        log.records[ref.record].capture.decisions[ref.decision];
    const bool now = relabeled[ref.row] != 0;
    if (now == decision.accepted) {
      ++agree;
    } else if (now) {
      ++gained;
    } else {
      ++lost;
    }
  }
  std::printf("decisions: %zu unchanged, %zu newly accepted, %zu newly "
              "rejected\n",
              agree, gained, lost);
  if (truth.has_value()) {
    ReportAgainstLabels(log, refs, relabeled, *truth);
  }
  return 0;
}

int CmdDiff(const Flags& flags, const LoadedLog& log) {
  const std::string path_a = flags.Get("model-a");
  const std::string path_b = flags.Get("model-b");
  if (path_a.empty() || path_b.empty()) {
    std::fprintf(stderr, "error: diff needs --model-a and --model-b\n");
    return 2;
  }
  const auto model_a = skyex::core::LoadModelFromFile(path_a);
  const auto model_b = skyex::core::LoadModelFromFile(path_b);
  if (!model_a.has_value() || !model_b.has_value()) {
    std::fprintf(stderr, "error: cannot load %s\n",
                 !model_a.has_value() ? path_a.c_str() : path_b.c_str());
    return 1;
  }

  skyex::ml::FeatureMatrix matrix;
  std::vector<ScoredRef> refs;
  if (!GatherRows(log, &matrix, &refs)) return 1;
  if (!ModelFitsRows(*model_a, matrix) || !ModelFitsRows(*model_b, matrix)) {
    return 1;
  }
  std::vector<size_t> rows(matrix.rows);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<uint8_t> labels_a =
      skyex::core::SkyExT::Label(matrix, rows, *model_a);
  const std::vector<uint8_t> labels_b =
      skyex::core::SkyExT::Label(matrix, rows, *model_b);

  size_t both = 0;
  size_t neither = 0;
  size_t only_a = 0;
  size_t only_b = 0;
  size_t shown = 0;
  for (const ScoredRef& ref : refs) {
    const bool a = labels_a[ref.row] != 0;
    const bool b = labels_b[ref.row] != 0;
    if (a && b) ++both;
    if (!a && !b) ++neither;
    if (a && !b) ++only_a;
    if (!a && b) ++only_b;
    if (a != b && shown < 10) {
      ++shown;
      const AuditRecord& record = log.records[ref.record];
      const auto& decision = record.capture.decisions[ref.decision];
      std::printf("  %" PRIu64 " vs %" PRIu64 ": %s -> %s (logged %s)\n",
                  record.entity_id, decision.candidate_id,
                  a ? "accept" : "reject", b ? "accept" : "reject",
                  decision.accepted ? "accept" : "reject");
    }
  }
  std::printf("diff over %zu decisions: %zu accepted by both, %zu by "
              "neither, %zu only by %s, %zu only by %s\n",
              refs.size(), both, neither, only_a, path_a.c_str(), only_b,
              path_b.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (skyex::tools::HandleVersion(argc, argv, "skyex_audit")) return 0;
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::optional<Flags> flags;
  if (command == "dump") {
    flags = skyex::tools::ParseFlags(argc, argv, 2,
                                     {{"log", FlagType::kString},
                                      {"limit", FlagType::kSize},
                                      {"features", FlagType::kBool}});
  } else if (command == "replay") {
    flags = skyex::tools::ParseFlags(argc, argv, 2,
                                     {{"log", FlagType::kString},
                                      {"model", FlagType::kString},
                                      {"labels", FlagType::kString}});
  } else if (command == "diff") {
    flags = skyex::tools::ParseFlags(argc, argv, 2,
                                     {{"log", FlagType::kString},
                                      {"model-a", FlagType::kString},
                                      {"model-b", FlagType::kString}});
  } else {
    return Usage();
  }
  if (!flags.has_value()) return 2;
  if (!skyex::tools::ObsSetup(*flags)) return 2;

  const std::string log_path = flags->Get("log");
  if (log_path.empty()) {
    std::fprintf(stderr, "error: --log is required\n");
    return Usage();
  }
  const auto log = LoadLog(log_path);
  if (!log.has_value()) return 1;

  int rc = 0;
  if (command == "dump") {
    rc = CmdDump(*flags, *log);
  } else if (command == "replay") {
    rc = CmdReplay(*flags, *log);
  } else {
    rc = CmdDiff(*flags, *log);
  }
  const int obs_rc = skyex::tools::ObsFinish(*flags);
  return rc != 0 ? rc : obs_rc;
}
