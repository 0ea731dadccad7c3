// Seeds for the fuzz-tier coverage sweeps. Iteration count and base seed
// come from the environment so CI can widen a sweep and a failure
// reproduces without recompiling:
//
//   DAPPLE_FUZZ_ITERATIONS=5000 DAPPLE_FUZZ_SEED=123 ctest -L fuzz
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "check/fuzz.h"

namespace dapple {

/// DAPPLE_FUZZ_ITERATIONS (default `iterations`) consecutive seeds starting
/// at DAPPLE_FUZZ_SEED (default 0).
inline std::vector<std::uint64_t> EnvFuzzSeeds(long iterations) {
  const char* count = std::getenv("DAPPLE_FUZZ_ITERATIONS");
  const char* base = std::getenv("DAPPLE_FUZZ_SEED");
  return check::SeedRange(base != nullptr ? std::strtoull(base, nullptr, 10) : 0,
                          count != nullptr ? std::atol(count) : iterations);
}

}  // namespace dapple
