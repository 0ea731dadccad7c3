#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.h"

namespace dapple::serve {

namespace {

const char* KindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kObject: return "object";
    case JsonValue::Kind::kArray: return "array";
  }
  return "?";
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue(0);
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw Error("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  /// `depth` counts the objects/arrays enclosing the value.
  JsonValue ParseValue(int depth) {
    switch (Peek()) {
      case '{': return ParseObject(depth + 1);
      case '[': return ParseArray(depth + 1);
      case '"': return JsonValue::MakeString(ParseString());
      case 't':
        if (Literal("true")) return JsonValue::MakeBool(true);
        Fail("invalid literal");
      case 'f':
        if (Literal("false")) return JsonValue::MakeBool(false);
        Fail("invalid literal");
      case 'n':
        if (Literal("null")) return JsonValue::MakeNull();
        Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  void CheckDepth(int depth) const {
    if (depth > kMaxJsonDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    }
  }

  JsonValue ParseObject(int depth) {
    CheckDepth(depth);
    Expect('{');
    JsonValue obj = JsonValue::MakeObject();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (Peek() != '"') Fail("expected object key string");
      std::string key = ParseString();
      Expect(':');
      obj.Set(key, ParseValue(depth));
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray(int depth) {
    CheckDepth(depth);
    Expect('[');
    JsonValue arr = JsonValue::MakeArray();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.Append(ParseValue(depth));
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else Fail("invalid \\u escape digit");
          }
          // UTF-8 encode (BMP only; surrogate pairs are out of scope for
          // the protocol's ASCII-leaning payloads).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: Fail("unknown escape character");
      }
    }
  }

  JsonValue ParseNumber() {
    SkipSpace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      Fail("malformed number '" + token + "'");
    }
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) throw Error(std::string("expected bool, got ") + KindName(kind_));
  return bool_;
}

double JsonValue::AsDouble() const {
  if (kind_ != Kind::kNumber) {
    throw Error(std::string("expected number, got ") + KindName(kind_));
  }
  return number_;
}

std::int64_t JsonValue::AsInt() const {
  const double v = AsDouble();
  if (v != std::floor(v) || v < -9.2e18 || v > 9.2e18) {
    throw Error("expected an integer, got " + std::to_string(v));
  }
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) {
    throw Error(std::string("expected string, got ") + KindName(kind_));
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) {
    throw Error(std::string("expected array, got ") + KindName(kind_));
  }
  return elements_;
}

bool JsonValue::Has(const std::string& key) const { return Find(key) != nullptr; }

const JsonValue& JsonValue::Get(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (!v) throw Error("missing field '" + key + "'");
  return *v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::vector<std::string> JsonValue::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(members_.size());
  for (const auto& [name, value] : members_) keys.push_back(name);
  return keys;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeObject() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

JsonValue JsonValue::MakeArray() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject) throw Error("Set on a non-object");
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

void JsonValue::Append(JsonValue v) {
  if (kind_ != Kind::kArray) throw Error("Append on a non-array");
  elements_.push_back(std::move(v));
}

JsonValue ParseJson(const std::string& text) { return Parser(text).ParseDocument(); }

}  // namespace dapple::serve
