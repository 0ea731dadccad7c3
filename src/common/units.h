// Strong unit types used throughout DAPPLE: simulated time (seconds) and
// data sizes (bytes). Keeping these as distinct vocabulary types (instead of
// bare doubles) makes cost-model signatures self-documenting and prevents
// mixing seconds with bytes at compile time where practical.
#pragma once

#include <cstdint>
#include <string>

namespace dapple {

/// Simulated time in seconds. The simulator is unit-agnostic; we standardize
/// on seconds so that bandwidths (bytes/sec) compose without conversion.
using TimeSec = double;

/// Data size in bytes.
using Bytes = std::uint64_t;

/// Bandwidth in bytes per second.
using BytesPerSec = double;

inline constexpr Bytes operator""_B(unsigned long long v) { return v; }
inline constexpr Bytes operator""_KiB(unsigned long long v) { return v * 1024ull; }
inline constexpr Bytes operator""_MiB(unsigned long long v) { return v * 1024ull * 1024ull; }
inline constexpr Bytes operator""_GiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull;
}

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Converts a fractional count of MiB to whole bytes (rounding down).
constexpr Bytes MiB(double v) { return static_cast<Bytes>(v * kMiB); }
/// Converts a fractional count of GiB to whole bytes (rounding down).
constexpr Bytes GiB(double v) { return static_cast<Bytes>(v * kGiB); }

/// Converts a Gbit/s link speed to bytes/sec (network convention: 1 Gbps =
/// 1e9 bits/sec).
constexpr BytesPerSec Gbps(double v) { return v * 1e9 / 8.0; }
/// Converts a GB/s memory/NVLink speed to bytes/sec (1 GB = 1e9 bytes).
constexpr BytesPerSec GBps(double v) { return v * 1e9; }

/// Renders a byte count with a human-friendly suffix, e.g. "26.0MB".
std::string FormatBytes(Bytes bytes);

/// Parses a byte count with an optional binary suffix: "123" (bytes),
/// "512KiB"/"512K", "12.5MiB"/"12.5M", "16GiB"/"16G", "2TiB"/"2T", plus an
/// optional "B" ("16GB" == "16GiB" here — sizes are binary throughout).
/// Case-insensitive; fractional values round down. Throws on malformed or
/// non-decimal input ("0x10", "inf", "nan"), negative values and sizes of
/// 2^64 bytes or more.
Bytes ParseBytes(const std::string& text);

/// Renders a simulated duration with an appropriate unit, e.g. "132.5ms".
std::string FormatTime(TimeSec seconds);

}  // namespace dapple
