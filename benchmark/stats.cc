#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::e2e {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::array<double, 3> Quartiles(std::vector<double> samples) {
  if (samples.empty()) return {0.0, 0.0, 0.0};
  if (samples.size() == 1) return {samples[0], samples[0], samples[0]};
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

serve::JsonValue ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return serve::ParseJson(text.str());
}

double PeakRssMiB() {
  // VmHWM, unlike getrusage's ru_maxrss, starts afresh at exec, so it
  // never reports the peak of the process that launched this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  throw Error("no VmHWM line in /proc/self/status");
}

RegistrySnapshot RegistrySnapshot::Take() {
  static const char* const kCounters[] = {
      "planner.candidates_evaluated", "planner.cache.hits", "planner.cache.misses",
      "planner.estimator_calls",      "sim.tasks_executed",
  };
  static const char* const kHistogramSums[] = {
      "planner.parallel.wall_seconds",
      "planner.cache.compute_seconds",
      "fault.replan.wall_seconds",
  };
  auto& registry = obs::MetricsRegistry::Global();
  RegistrySnapshot snapshot;
  for (const char* name : kCounters) {
    snapshot.values_[name] = static_cast<double>(registry.counter(name).value());
  }
  for (const char* name : kHistogramSums) {
    snapshot.values_[name] = registry.histogram(name).sum();
  }
  return snapshot;
}

double RegistrySnapshot::Delta(const RegistrySnapshot& before, const std::string& name) const {
  const auto now = values_.find(name);
  const auto then = before.values_.find(name);
  const double a = now == values_.end() ? 0.0 : now->second;
  const double b = then == before.values_.end() ? 0.0 : then->second;
  return a - b;
}

}  // namespace dapple::e2e
