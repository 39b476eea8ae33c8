#ifndef SKYEX_SERVE_JSON_WRITER_H_
#define SKYEX_SERVE_JSON_WRITER_H_

// Small streaming JSON writer — the write-side counterpart of the
// obs/json.h parser. Comma placement and nesting are handled by a
// context stack; values are appended to one growing string. The writer
// does not validate call order beyond what the stack gives (e.g. a Key
// outside an object is a programming error, checked by assert).

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace skyex::serve::json {

using obs::json::Escape;

class Writer {
 public:
  Writer& BeginObject() {
    Prefix();
    out_ += '{';
    stack_.push_back(State::kObjectFirst);
    return *this;
  }
  Writer& EndObject() {
    assert(!stack_.empty());
    out_ += '}';
    stack_.pop_back();
    return *this;
  }
  Writer& BeginArray() {
    Prefix();
    out_ += '[';
    stack_.push_back(State::kArrayFirst);
    return *this;
  }
  Writer& EndArray() {
    assert(!stack_.empty());
    out_ += ']';
    stack_.pop_back();
    return *this;
  }
  Writer& Key(std::string_view key) {
    assert(!stack_.empty());
    Prefix();
    out_ += '"';
    out_ += Escape(key);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }
  Writer& String(std::string_view value) {
    Prefix();
    out_ += '"';
    out_ += Escape(value);
    out_ += '"';
    return *this;
  }
  Writer& Number(double value);
  Writer& Int(int64_t value) {
    Prefix();
    out_ += std::to_string(value);
    return *this;
  }
  Writer& Uint(uint64_t value) {
    Prefix();
    out_ += std::to_string(value);
    return *this;
  }
  Writer& Bool(bool value) {
    Prefix();
    out_ += value ? "true" : "false";
    return *this;
  }
  Writer& Null() {
    Prefix();
    out_ += "null";
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  enum class State : uint8_t { kObjectFirst, kObject, kArrayFirst, kArray };

  // Inserts the separating comma where the context requires one.
  void Prefix() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;
    State& state = stack_.back();
    switch (state) {
      case State::kObjectFirst: state = State::kObject; break;
      case State::kArrayFirst: state = State::kArray; break;
      case State::kObject:
      case State::kArray: out_ += ','; break;
    }
  }

  std::string out_;
  std::vector<State> stack_;
  bool pending_value_ = false;
};

}  // namespace skyex::serve::json

#endif  // SKYEX_SERVE_JSON_WRITER_H_
