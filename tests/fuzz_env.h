// Seeds for the fuzz-tier coverage sweeps. Iteration count and base seed
// come from the environment so CI can widen a sweep and a failure
// reproduces without recompiling:
//
//   DAPPLE_FUZZ_ITERATIONS=5000 DAPPLE_FUZZ_SEED=123 ctest -L fuzz
//
// Each variable is one strict unsigned parse of its whole value. A
// malformed value, or an iteration count of 0, throws, so the test reading
// it fails instead of passing on a sweep of the wrong size.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzz.h"

namespace dapple {

/// The unsigned decimal held by environment variable `name`, or `fallback`
/// when it is unset.
inline std::uint64_t EnvUnsigned(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || stop == text) {
    throw std::invalid_argument(std::string(name) + " must be an unsigned integer, got '" +
                                text + "'");
  }
  return value;
}

/// DAPPLE_FUZZ_ITERATIONS, or `iterations` when it is unset; positive.
inline long EnvFuzzIterations(long iterations) {
  const std::uint64_t count =
      EnvUnsigned("DAPPLE_FUZZ_ITERATIONS", static_cast<std::uint64_t>(iterations));
  if (count == 0 || count > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
    throw std::invalid_argument("DAPPLE_FUZZ_ITERATIONS must be a positive count, got " +
                                std::to_string(count));
  }
  return static_cast<long>(count);
}

/// DAPPLE_FUZZ_ITERATIONS (default `iterations`) consecutive seeds starting
/// at DAPPLE_FUZZ_SEED (default 0).
inline std::vector<std::uint64_t> EnvFuzzSeeds(long iterations) {
  return check::SeedRange(EnvUnsigned("DAPPLE_FUZZ_SEED", 0), EnvFuzzIterations(iterations));
}

}  // namespace dapple
