// FlagParser — the `--flag [value]` scanner shared by the command-line
// tools (dapple, dapple_fuzz). Use in an if/else chain per token:
//
//   FlagParser flags(argc, argv);
//   while (!flags.Done()) {
//     if (flags.MatchValue("--save", &v)) save_path = v;
//     else if (flags.Match("--gantt")) gantt = true;
//     else flags.Unknown();
//   }
//   if (!flags.ok()) return Usage();
//
// Errors (unknown flag, missing or malformed value) print one diagnostic
// to stderr, mark the parser failed and stop the scan; branch bodies never
// run on a half-consumed flag.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

/// True (with `*value` set) when the whole of `text` is an unsigned decimal
/// that fits T; a sign, trailing garbage or overflow returns false.
template <typename T>
bool ParseUnsigned(const std::string& text, T* value) {
  std::uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || stop != end ||
      parsed > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *value = static_cast<T>(parsed);
  return true;
}

/// True (with `*value` set) when the whole of `text` is a finite decimal
/// number greater than 0; a sign, trailing garbage, inf, nan, overflow or
/// zero returns false.
inline bool ParsePositive(const std::string& text, double* value) {
  double parsed = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || stop != end || !std::isfinite(parsed) || parsed <= 0.0) {
    return false;
  }
  *value = parsed;
  return true;
}

class FlagParser {
 public:
  FlagParser(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// True when no tokens remain or an error was recorded.
  bool Done() const { return !ok_ || i_ >= argc_; }
  bool ok() const { return ok_; }

  /// Consumes `name` when it is the current token (a value-less flag).
  bool Match(const char* name) {
    if (Done() || std::strcmp(argv_[i_], name) != 0) return false;
    ++i_;
    return true;
  }

  /// Consumes `name <value>`; a missing value records an error.
  bool MatchValue(const char* name, std::string* value) {
    if (Done() || std::strcmp(argv_[i_], name) != 0) return false;
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "flag %s requires a value\n", name);
      ok_ = false;
      ++i_;
      return false;
    }
    ++i_;
    *value = argv_[i_++];
    return true;
  }

  /// Consumes `name <value>` where the whole value is an unsigned decimal
  /// that fits T; a sign, trailing garbage or overflow records an error.
  template <typename T>
  bool MatchUnsigned(const char* name, T* value) {
    std::string text;
    if (!MatchValue(name, &text)) return false;
    if (!ParseUnsigned(text, value)) {
      std::fprintf(stderr, "flag %s needs an unsigned integer, got '%s'\n", name, text.c_str());
      ok_ = false;
      return false;
    }
    return true;
  }

  /// Consumes `name <value>` where the whole value is a finite number > 0;
  /// anything else records an error.
  bool MatchPositive(const char* name, double* value) {
    std::string text;
    if (!MatchValue(name, &text)) return false;
    if (!ParsePositive(text, value)) {
      std::fprintf(stderr, "flag %s needs a finite number > 0, got '%s'\n", name, text.c_str());
      ok_ = false;
      return false;
    }
    return true;
  }

  /// Consumes the `--name=value` spelling given prefix "--name=".
  bool MatchPrefix(const char* prefix, std::string* value) {
    if (Done()) return false;
    const std::size_t len = std::strlen(prefix);
    if (std::strncmp(argv_[i_], prefix, len) != 0) return false;
    *value = argv_[i_] + len;
    ++i_;
    return true;
  }

  /// Ends an if/else chain: the current token matched nothing.
  void Unknown() {
    if (Done()) return;
    std::fprintf(stderr, "unknown flag %s\n", argv_[i_]);
    ok_ = false;
    ++i_;
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  bool ok_ = true;
};
