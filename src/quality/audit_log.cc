#include "quality/audit_log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace skyex::quality {

namespace {

constexpr uint32_t kRecordMagic = 0xAD17CA11;
constexpr size_t kFrameHeaderBytes = 4 + 4 + 8;  // magic + len + checksum
/// Sanity cap on one payload: a corrupt length field must not trigger a
/// multi-gigabyte allocation.
constexpr size_t kMaxPayloadBytes = size_t{1} << 26;

uint64_t Fnv1a(const char* data, size_t size, uint64_t hash = 0xcbf29ce484222325ULL) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
void AppendRaw(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

void AppendDoubles(std::string* out, const std::vector<double>& values) {
  AppendRaw<uint32_t>(out, static_cast<uint32_t>(values.size()));
  if (!values.empty()) {
    out->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(double));
  }
}

/// Bounds-checked sequential reader over a payload.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDoubles(std::vector<double>* out) {
    uint32_t n = 0;
    if (!Read(&n)) return false;
    if ((bytes_.size() - pos_) / sizeof(double) < n) return false;
    out->resize(n);
    if (n > 0) {
      std::memcpy(out->data(), bytes_.data() + pos_, n * sizeof(double));
      pos_ += n * sizeof(double);
    }
    return true;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

std::string EncodePayload(const AuditRecord& record) {
  std::string payload;
  AppendRaw<uint64_t>(&payload, record.request_id);
  AppendRaw<uint64_t>(&payload, record.entity_id);
  AppendRaw<uint32_t>(&payload, record.shard_id);
  AppendRaw<uint8_t>(&payload, record.degraded ? 1 : 0);
  AppendRaw<uint64_t>(&payload, record.model_hash);
  AppendDoubles(&payload, record.capture.threshold_key);
  AppendRaw<uint32_t>(&payload,
                      static_cast<uint32_t>(record.capture.decisions.size()));
  for (const CandidateDecision& d : record.capture.decisions) {
    AppendRaw<uint64_t>(&payload, d.candidate_id);
    AppendRaw<uint32_t>(&payload, d.candidate_index);
    uint8_t flags = 0;
    if (d.prefilter_pass) flags |= 1;
    if (d.scored) flags |= 2;
    if (d.accepted) flags |= 4;
    AppendRaw<uint8_t>(&payload, flags);
    AppendRaw<double>(&payload, d.prefilter_estimate);
    AppendRaw<double>(&payload, d.score);
    AppendDoubles(&payload, d.features);
  }
  return payload;
}

bool DecodePayload(std::string_view payload, AuditRecord* record) {
  Cursor cursor(payload);
  uint8_t degraded = 0;
  if (!cursor.Read(&record->request_id) || !cursor.Read(&record->entity_id) ||
      !cursor.Read(&record->shard_id) || !cursor.Read(&degraded) ||
      !cursor.Read(&record->model_hash) ||
      !cursor.ReadDoubles(&record->capture.threshold_key)) {
    return false;
  }
  record->degraded = degraded != 0;
  uint32_t decisions = 0;
  if (!cursor.Read(&decisions)) return false;
  record->capture.decisions.clear();
  record->capture.decisions.reserve(decisions);
  for (uint32_t i = 0; i < decisions; ++i) {
    CandidateDecision d;
    uint8_t flags = 0;
    if (!cursor.Read(&d.candidate_id) || !cursor.Read(&d.candidate_index) ||
        !cursor.Read(&flags) || !cursor.Read(&d.prefilter_estimate) ||
        !cursor.Read(&d.score) || !cursor.ReadDoubles(&d.features)) {
      return false;
    }
    d.prefilter_pass = (flags & 1) != 0;
    d.scored = (flags & 2) != 0;
    d.accepted = (flags & 4) != 0;
    record->capture.decisions.push_back(std::move(d));
  }
  return cursor.exhausted();
}

}  // namespace

uint64_t HashModelText(std::string_view model_text) {
  return Fnv1a(model_text.data(), model_text.size());
}

std::string HashHex(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer);
}

std::string EncodeAuditHeader(const AuditLogHeader& header) {
  return "skyexaudit v" + std::to_string(header.version) +
         " features=" + std::to_string(header.feature_count) +
         " model=" + HashHex(header.model_hash) + "\n";
}

std::string EncodeAuditRecord(const AuditRecord& record) {
  const std::string payload = EncodePayload(record);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendRaw<uint32_t>(&frame, kRecordMagic);
  AppendRaw<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint64_t>(&frame, Fnv1a(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

bool DecodeAuditLog(std::string_view bytes, AuditLogHeader* header,
                    std::vector<AuditRecord>* records, AuditReadStats* stats,
                    std::string* error) {
  records->clear();
  *stats = AuditReadStats{};
  const size_t newline = bytes.find('\n');
  if (newline == std::string_view::npos) {
    if (error != nullptr) *error = "audit log has no header line";
    return false;
  }
  const std::string line(bytes.substr(0, newline));
  unsigned version = 0;
  unsigned features = 0;
  char model_hex[17] = {0};
  if (std::sscanf(line.c_str(), "skyexaudit v%u features=%u model=%16s",
                  &version, &features, model_hex) != 3 ||
      version != 1) {
    if (error != nullptr) {
      *error = "unrecognized audit log header: '" + line + "'";
    }
    return false;
  }
  header->version = version;
  header->feature_count = features;
  header->model_hash = std::strtoull(model_hex, nullptr, 16);

  size_t pos = newline + 1;
  while (pos < bytes.size()) {
    // Any decode failure from here on is a torn tail, not an error: the
    // writer appends whole frames, so a partial or corrupt frame can
    // only be the crash remnant (or trailing garbage) at the end.
    if (bytes.size() - pos < kFrameHeaderBytes) break;
    uint32_t magic = 0;
    uint32_t length = 0;
    uint64_t checksum = 0;
    std::memcpy(&magic, bytes.data() + pos, 4);
    std::memcpy(&length, bytes.data() + pos + 4, 4);
    std::memcpy(&checksum, bytes.data() + pos + 8, 8);
    if (magic != kRecordMagic || length > kMaxPayloadBytes) break;
    if (bytes.size() - pos - kFrameHeaderBytes < length) break;
    const std::string_view payload =
        bytes.substr(pos + kFrameHeaderBytes, length);
    if (Fnv1a(payload.data(), payload.size()) != checksum) break;
    AuditRecord record;
    if (!DecodePayload(payload, &record)) break;
    records->push_back(std::move(record));
    pos += kFrameHeaderBytes + length;
  }
  stats->records = records->size();
  stats->torn_tail_bytes = bytes.size() - pos;
  return true;
}

bool ReadAuditLog(const std::string& path, AuditLogHeader* header,
                  std::vector<AuditRecord>* records, AuditReadStats* stats,
                  std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open audit log '" + path + "'";
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return DecodeAuditLog(bytes, header, records, stats, error);
}

AuditWriter::~AuditWriter() { Close(); }

bool AuditWriter::Open(const AuditWriterOptions& options,
                       const AuditLogHeader& header, std::string* error) {
  Close();
  options_ = options;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  stream_.open(options_.path, std::ios::binary | std::ios::trunc);
  if (!stream_) {
    if (error != nullptr) {
      *error = "cannot create audit log '" + options_.path + "'";
    }
    return false;
  }
  const std::string head = EncodeAuditHeader(header);
  stream_.write(head.data(), static_cast<std::streamsize>(head.size()));
  stream_.flush();
  closing_ = false;
  writing_ = false;
  written_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  writer_ = std::thread(&AuditWriter::WriterLoop, this);
  open_.store(true, std::memory_order_release);
  return true;
}

void AuditWriter::Append(AuditRecord record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_ || !open() || queue_.size() >= options_.queue_capacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    queue_.push_back(std::move(record));
  }
  work_cv_.notify_one();
}

void AuditWriter::WriterLoop() {
  for (;;) {
    std::deque<AuditRecord> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return closing_ || !queue_.empty(); });
      if (queue_.empty() && closing_) return;
      batch.swap(queue_);
      writing_ = true;
    }
    for (const AuditRecord& record : batch) {
      const std::string frame = EncodeAuditRecord(record);
      stream_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      written_.fetch_add(1, std::memory_order_relaxed);
    }
    stream_.flush();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      writing_ = false;
    }
    drained_cv_.notify_all();
  }
}

void AuditWriter::Flush() {
  if (!open()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && !writing_; });
}

void AuditWriter::Close() {
  if (!writer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
  }
  work_cv_.notify_all();
  writer_.join();
  open_.store(false, std::memory_order_release);
  stream_.flush();
  stream_.close();
}

}  // namespace skyex::quality
