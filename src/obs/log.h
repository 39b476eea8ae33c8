#ifndef SKYEX_OBS_LOG_H_
#define SKYEX_OBS_LOG_H_

// Leveled structured logger: one line per event, `key=value` pairs, sunk
// to stderr by default. Events below Logger::Global().level() are
// skipped before any formatting happens.
//
//   SKYEX_LOG_INFO("pipeline/load_dataset", "loaded dataset",
//                  {"records", n}, {"pairs", pairs.size()});
//   => level=info event=pipeline/load_dataset msg="loaded dataset"
//      records=8000 pairs=102342

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace skyex::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* LogLevelName(LogLevel level);

/// Parses "debug", "info", "warn"/"warning", "error"; false on others.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// One key=value attachment. Strings are quoted in the output; numbers
/// print bare.
struct LogKV {
  enum class Kind : uint8_t { kInt, kUint, kDouble, kString, kBool };

  LogKV(std::string_view k, int v)
      : key(k), kind(Kind::kInt), int_v(v) {}
  LogKV(std::string_view k, long v)
      : key(k), kind(Kind::kInt), int_v(v) {}
  LogKV(std::string_view k, long long v)
      : key(k), kind(Kind::kInt), int_v(v) {}
  LogKV(std::string_view k, unsigned v)
      : key(k), kind(Kind::kUint), uint_v(v) {}
  LogKV(std::string_view k, unsigned long v)
      : key(k), kind(Kind::kUint), uint_v(v) {}
  LogKV(std::string_view k, unsigned long long v)
      : key(k), kind(Kind::kUint), uint_v(v) {}
  LogKV(std::string_view k, double v)
      : key(k), kind(Kind::kDouble), double_v(v) {}
  LogKV(std::string_view k, bool v)
      : key(k), kind(Kind::kBool), bool_v(v) {}
  LogKV(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), string_v(v) {}
  LogKV(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), string_v(v) {}
  LogKV(std::string_view k, const std::string& v)
      : key(k), kind(Kind::kString), string_v(v) {}

  std::string_view key;
  Kind kind;
  int64_t int_v = 0;
  uint64_t uint_v = 0;
  double double_v = 0.0;
  bool bool_v = false;
  std::string_view string_v;
};

class Logger {
 public:
  static Logger& Global();

  void SetLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Formats and emits one event. `event` names what happened
  /// (`subsystem/verb_noun`), `msg` is free-form human text.
  void Log(LogLevel level, std::string_view event, std::string_view msg,
           std::initializer_list<LogKV> kvs);

  /// Redirects output into a string for tests; nullptr restores stderr.
  void SetCaptureForTest(std::string* capture);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  Logger() = default;
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::string* capture_ = nullptr;  // guarded by the emit mutex
};

}  // namespace skyex::obs

#define SKYEX_LOG_AT_LEVEL(level, event, msg, ...)                       \
  do {                                                                   \
    auto& skyex_obs_logger_ = ::skyex::obs::Logger::Global();            \
    if (skyex_obs_logger_.Enabled(level)) {                              \
      skyex_obs_logger_.Log(level, event, msg, {__VA_ARGS__});           \
    }                                                                    \
  } while (0)

#define SKYEX_LOG_DEBUG(event, msg, ...) \
  SKYEX_LOG_AT_LEVEL(::skyex::obs::LogLevel::kDebug, event, msg, __VA_ARGS__)
#define SKYEX_LOG_INFO(event, msg, ...) \
  SKYEX_LOG_AT_LEVEL(::skyex::obs::LogLevel::kInfo, event, msg, __VA_ARGS__)
#define SKYEX_LOG_WARN(event, msg, ...) \
  SKYEX_LOG_AT_LEVEL(::skyex::obs::LogLevel::kWarn, event, msg, __VA_ARGS__)
#define SKYEX_LOG_ERROR(event, msg, ...) \
  SKYEX_LOG_AT_LEVEL(::skyex::obs::LogLevel::kError, event, msg, __VA_ARGS__)

#endif  // SKYEX_OBS_LOG_H_
