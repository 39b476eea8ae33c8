#ifndef SKYEX_OBS_JSON_H_
#define SKYEX_OBS_JSON_H_

// Minimal recursive-descent JSON parser used to validate the files the
// observability layer emits (Chrome traces, metrics dumps) — by
// tools/validate_trace and the tests that parse traces back — plus the
// one string escaper every JSON writer in the library uses. Not a
// general-purpose JSON library: no streaming, whole document in memory.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skyex::obs::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double number_v = 0.0;
  std::string string_v;
  std::vector<Value> array_v;
  std::vector<std::pair<std::string, Value>> object_v;  // insertion order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else). On failure returns nullopt and, if `error` is non-null, a
/// message with the byte offset.
std::optional<Value> Parse(std::string_view text, std::string* error);

/// Escapes a string body for inclusion between double quotes: `"`, `\`,
/// newline, tab and carriage return get their short escapes, other
/// control bytes `\u00XX`; every other byte passes through unchanged.
std::string Escape(std::string_view s);

}  // namespace skyex::obs::json

#endif  // SKYEX_OBS_JSON_H_
