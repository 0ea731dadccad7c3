// Small numeric and bookkeeping helpers shared by dapple_bench_e2e:
// order statistics over timing samples, seed mixing, wall-clock reads, JSON
// file reads and before/after snapshots of the library's MetricsRegistry.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/json.h"

namespace dapple::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (0 < p <= 100) of the samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Median with the midpoint of the two central samples on even counts.
double Median(std::vector<double> samples);

/// Quartiles exactly as Python's statistics.quantiles(samples, n=4) gives
/// them (the default "exclusive" method). Needs at least two samples; with
/// one sample every quartile is that sample.
std::array<double, 3> Quartiles(std::vector<double> samples);

/// Decorrelated 64-bit seed for stream `index` of base seed `seed`
/// (splitmix64 finalizer), so every input a workload draws is a pure
/// function of --seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index);

/// Parses a JSON file (BENCHMARK.json, results files) with the serve
/// protocol's reader; throws dapple::Error when it cannot be read or parsed.
serve::JsonValue ReadJsonFile(const std::string& path);

/// Peak resident set size of this program in MiB (VmHWM).
double PeakRssMiB();

/// Values of the registry instruments the per-layer metrics read: counter
/// values and histogram sums, keyed by instrument name. Reading an
/// instrument the library has not created yet creates it at zero.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  /// This snapshot's value minus `before`'s for one instrument.
  double Delta(const RegistrySnapshot& before, const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace dapple::e2e
