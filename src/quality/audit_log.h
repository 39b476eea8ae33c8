#ifndef SKYEX_QUALITY_AUDIT_LOG_H_
#define SKYEX_QUALITY_AUDIT_LOG_H_

// Decision audit log: an append-only, sampled record of every link
// decision the serving layer makes, written asynchronously so the
// shard workers never block on disk. Each record carries enough to
// re-run the decision offline without the serving dataset: the request
// id, the incoming entity id, the shard that decided, the calibrated
// skyline cutoff (threshold key), and per candidate the prefilter
// verdict, the full LGM-X feature vector and the model score — so
// `skyex_audit replay` can reproduce scores and accept/reject verdicts
// bit-identically from the log alone (docs/observability.md, "Linkage
// quality"). The linker scores on the model's columns and extracts the
// full 88-column row only for an attempt the log keeps.
//
// On-disk format (host-endian, self-describing):
//
//   header   one text line: "skyexaudit v1 features=<N> model=<hex16>\n"
//   record   [u32 magic][u32 payload_len][u64 fnv1a(payload)][payload]
//
// The framing makes the log crash-tolerant: a reader accepts every
// intact frame and stops at the first torn or corrupt one, reporting
// the remaining bytes as a torn tail instead of failing — a process
// killed mid-write loses at most the record being written.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace skyex::quality {

/// FNV-1a over the model_io text — the "model version hash" stamped
/// into audit logs and reference profiles so offline tools can tell
/// whether they are replaying against the same model that decided.
uint64_t HashModelText(std::string_view model_text);

/// Fixed-width lowercase hex of a 64-bit hash ("00af...").
std::string HashHex(uint64_t hash);

/// One candidate the linker looked at while linking an entity. A
/// prefilter-dropped candidate keeps `scored` false and its feature
/// vector empty; a scored one carries the full feature row and the
/// model score (the prioritized group sum, bit-exact as served).
struct CandidateDecision {
  uint64_t candidate_id = 0;
  uint32_t candidate_index = 0;  // dataset index at decision time
  bool prefilter_pass = true;
  bool scored = false;
  bool accepted = false;
  double prefilter_estimate = 0.0;  // sketch token-overlap estimate
  double score = 0.0;
  std::vector<double> features;
};

/// What IncrementalLinker::MatchRecord captures, and what the caller
/// keeps of it. The linker scores every candidate on the columns the
/// model reads; it extracts a full LGM-X row only for a decision kept
/// here. A default-constructed capture is the full audit trail.
struct MatchCapture {
  /// Request. `audit` keeps the threshold key and every candidate
  /// decision: prefilter drops with their estimate, scored candidates
  /// with their full row, estimate, score and verdict. Off, `decisions`
  /// holds only the rows the drift detector observes.
  bool audit = true;
  /// Drift row decimation, 0 for none: the linker numbers the scored
  /// rows of every attempt captured with drift_every > 0 (its own count,
  /// in candidate order) and the detector observes row n when
  /// n % drift_every == 0 (quality::DriftOptions::row_sample_every).
  uint64_t drift_every = 0;

  /// Result. The threshold key is the calibrated one in force (the
  /// "skyline cutoff"); `observed` lists the positions in `decisions` of
  /// the rows the drift detector observes, ascending. Only
  /// `threshold_key` and `decisions` go into the audit log.
  std::vector<double> threshold_key;
  std::vector<CandidateDecision> decisions;
  std::vector<uint32_t> observed;
};

/// One audit-log record: a full link decision for one incoming entity.
struct AuditRecord {
  uint64_t request_id = 0;
  uint64_t entity_id = 0;
  uint32_t shard_id = 0;
  bool degraded = false;  // answered by the fallback path (no decisions)
  uint64_t model_hash = 0;
  MatchCapture capture;
};

struct AuditLogHeader {
  uint32_t version = 1;
  uint32_t feature_count = 0;
  uint64_t model_hash = 0;
};

/// The header text line (with trailing newline).
std::string EncodeAuditHeader(const AuditLogHeader& header);

/// One framed record: magic + length + checksum + payload.
std::string EncodeAuditRecord(const AuditRecord& record);

struct AuditReadStats {
  size_t records = 0;          // intact records decoded
  size_t torn_tail_bytes = 0;  // bytes after the last intact frame
};

/// Decodes a complete log image. Returns false (with `error`) only when
/// the header itself is unusable; torn or corrupt frames after a valid
/// header are not an error — decoding stops there and the remainder is
/// counted in `stats->torn_tail_bytes`.
bool DecodeAuditLog(std::string_view bytes, AuditLogHeader* header,
                    std::vector<AuditRecord>* records, AuditReadStats* stats,
                    std::string* error);

/// File variant of DecodeAuditLog. False + `error` on I/O failure too.
bool ReadAuditLog(const std::string& path, AuditLogHeader* header,
                  std::vector<AuditRecord>* records, AuditReadStats* stats,
                  std::string* error);

struct AuditWriterOptions {
  std::string path;
  /// Entity-level decimation: Runtime::ShouldCapture (quality/quality.h)
  /// captures every Nth link attempt (1 = all; 0 reads as 1).
  uint64_t sample_every = 1;
  /// Bounded hand-off queue to the writer thread; records arriving at a
  /// full queue are dropped (and counted) rather than blocking the
  /// linker.
  size_t queue_capacity = 1024;
};

/// Asynchronous audit-log writer: producers enqueue records under a
/// short lock, a dedicated thread serializes and appends them. Open /
/// Close bracket a log file; Append is thread-safe.
class AuditWriter {
 public:
  AuditWriter() = default;
  ~AuditWriter();

  /// Creates (truncates) `options.path` and writes the header. False +
  /// `error` when the file cannot be opened.
  bool Open(const AuditWriterOptions& options, const AuditLogHeader& header,
            std::string* error);

  bool open() const { return open_.load(std::memory_order_acquire); }

  /// Enqueues a record for the writer thread; drops (and counts) when
  /// the queue is full or the writer is closed. Never blocks on I/O.
  void Append(AuditRecord record);

  /// Blocks until every enqueued record reached the stream and the
  /// stream is flushed.
  void Flush();

  /// Flush + join + close. Idempotent; the destructor calls it.
  void Close();

  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const std::string& path() const { return options_.path; }

  AuditWriter(const AuditWriter&) = delete;
  AuditWriter& operator=(const AuditWriter&) = delete;

 private:
  void WriterLoop();

  AuditWriterOptions options_;
  std::atomic<bool> open_{false};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> dropped_{0};

  std::mutex mutex_;
  std::condition_variable work_cv_;     // queue became non-empty / closing
  std::condition_variable drained_cv_;  // queue empty and writer idle
  std::deque<AuditRecord> queue_;
  bool closing_ = false;
  bool writing_ = false;  // writer thread holds a popped batch
  std::ofstream stream_;
  std::thread writer_;
};

}  // namespace skyex::quality

#endif  // SKYEX_QUALITY_AUDIT_LOG_H_
