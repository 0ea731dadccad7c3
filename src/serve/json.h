// Minimal JSON reader for the serve protocol. The repo's obs::JsonWriter
// covers the emitting side; requests arriving over the wire need the
// reverse: a small recursive-descent parser into a dynamically-typed value
// tree. Scope is deliberately tight — UTF-8 passthrough, \uXXXX escapes
// limited to the BMP, numbers as doubles — because the protocol's requests
// are flat objects of strings and small integers. Malformed input throws
// dapple::Error with a byte offset; the daemon turns that into a structured
// error response instead of dying (a hard requirement: a truncated request
// must never take the server down). Nesting is bounded by kMaxJsonDepth, so
// a line of brackets cannot recurse the parser off the stack either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dapple::serve {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw dapple::Error on kind mismatch.
  bool AsBool() const;
  double AsDouble() const;
  /// AsDouble checked to be integral and in range.
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Object field lookup: Has/Get (Get throws when the key is absent),
  /// Find (nullptr when absent).
  bool Has(const std::string& key) const;
  const JsonValue& Get(const std::string& key) const;
  const JsonValue* Find(const std::string& key) const;

  /// Object keys in insertion order (for unknown-field diagnostics).
  std::vector<std::string> Keys() const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeObject();
  static JsonValue MakeArray();

  void Set(const std::string& key, JsonValue v);  // object insert
  void Append(JsonValue v);                       // array push

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;  // object, ordered
  std::vector<JsonValue> elements_;                         // array
};

/// Deepest object/array nesting ParseJson accepts (the top-level container
/// is depth 1).
inline constexpr int kMaxJsonDepth = 64;

/// Longest request line the serve protocol accepts, newline excluded. A
/// longer line is answered with one "bad_request", and the socket
/// transport stops buffering it past this bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Throws dapple::Error with a byte offset on malformed or truncated input,
/// and on nesting deeper than kMaxJsonDepth.
JsonValue ParseJson(const std::string& text);

}  // namespace dapple::serve
