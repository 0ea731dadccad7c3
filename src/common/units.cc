#include "common/units.h"

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/error.h"

namespace dapple {

std::string FormatBytes(Bytes bytes) {
  static constexpr std::array<const char*, 5> kSuffix = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  std::size_t idx = 0;
  while (value >= 1024.0 && idx + 1 < kSuffix.size()) {
    value /= 1024.0;
    ++idx;
  }
  char buf[32];
  if (idx == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", value, kSuffix[idx]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", value, kSuffix[idx]);
  }
  return buf;
}

Bytes ParseBytes(const std::string& text) {
  auto malformed = [&text] { return Error("cannot parse byte size '" + text + "'"); };
  const char* p = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(p, &end);
  // strtod also reads hex ("0x10"), "inf" and "nan"; only a decimal number
  // is a size.
  if (end == p || !(value >= 0.0) ||
      std::string_view(p, static_cast<std::size_t>(end - p))
              .find_first_not_of("0123456789.eE+- \t\n\v\f\r") != std::string_view::npos) {
    throw malformed();
  }
  std::string suffix;
  for (const char* c = end; *c != '\0'; ++c) {
    if (std::isspace(static_cast<unsigned char>(*c))) continue;
    suffix += static_cast<char>(std::toupper(static_cast<unsigned char>(*c)));
  }
  // Normalize: strip a trailing "B" and an "I" of the binary notation, so
  // "KIB" / "KB" / "K" all mean 1024.
  if (!suffix.empty() && suffix.back() == 'B') suffix.pop_back();
  if (!suffix.empty() && suffix.back() == 'I') suffix.pop_back();
  double multiplier = 1.0;
  if (suffix == "") {
    multiplier = 1.0;
  } else if (suffix == "K") {
    multiplier = kKiB;
  } else if (suffix == "M") {
    multiplier = kMiB;
  } else if (suffix == "G") {
    multiplier = kGiB;
  } else if (suffix == "T") {
    multiplier = kGiB * 1024.0;
  } else {
    throw Error("unknown byte-size suffix in '" + text + "' (use B, KiB, MiB, GiB, TiB)");
  }
  // 2^64 and up (infinity included) has no Bytes value to cast to.
  const double bytes = value * multiplier;
  if (!(bytes < 0x1p64)) throw malformed();
  return static_cast<Bytes>(bytes);
}

std::string FormatTime(TimeSec seconds) {
  char buf[32];
  if (seconds < 0) {
    std::snprintf(buf, sizeof(buf), "-%s", FormatTime(-seconds).c_str());
  } else if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

}  // namespace dapple
