#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace skyex::obs::json {

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const Value* Value::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_v) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> Run() {
    SkipWhitespace();
    Value root;
    if (!ParseValue(&root)) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      return std::nullopt;
    }
    return root;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(Value* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->string_v);
      case 't':
        out->type = Value::Type::kBool;
        out->bool_v = true;
        return ConsumeLiteral("true") || Fail("bad literal");
      case 'f':
        out->type = Value::Type::kBool;
        out->bool_v = false;
        return ConsumeLiteral("false") || Fail("bad literal");
      case 'n':
        out->type = Value::Type::kNull;
        return ConsumeLiteral("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out) {
    out->type = Value::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return true;
    for (;;) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key string");
      }
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWhitespace();
      Value value;
      if (!ParseValue(&value)) return false;
      out->object_v.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out) {
    out->type = Value::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return true;
    for (;;) {
      SkipWhitespace();
      Value value;
      if (!ParseValue(&value)) return false;
      out->array_v.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            for (size_t k = 0; k < 4; ++k) {
              if (std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + k])) == 0) {
                return Fail("bad \\u escape");
              }
            }
            // Validation-oriented parser: keep the escape verbatim
            // rather than decoding UTF-16 surrogates.
            out->append("\\u");
            out->append(text_.substr(pos_, 4));
            pos_ += 4;
            break;
          }
          default:
            return Fail("bad escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    if (!ConsumeDigits()) return Fail("expected number");
    if (Consume('.')) {
      if (!ConsumeDigits()) return Fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Fail("expected exponent digits");
    }
    out->type = Value::Type::kNumber;
    out->number_v =
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr);
    return true;
  }

  bool ConsumeDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Value> Parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).Run();
}

}  // namespace skyex::obs::json
