// The benchmark's four workloads. Each one sets itself up several times
// (setup_s is the median; a set-up ends with a warm-up), runs a closed loop
// of calls into one public entry point on one thread for the requested
// number of seconds, then checks every output it can against a reference.
// With tracing on, the same loop also records one span per sampled
// operation and, once the loop has ended, replays sampled operations
// through the layer entry points they compose.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace dapple::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A stretch of wall-clock time.
struct Interval {
  Clock::time_point start;
  Clock::time_point end;
  double seconds() const { return SecondsBetween(start, end); }
};

/// What one run measured and checked. Times are kept as intervals, so
/// that they can be scaled to the host's nominal speed (host_probe.h).
struct RunResult {
  /// Work units attempted in the timed window (plans, requests, pipelines,
  /// episodes), and how many of them failed a check.
  long attempted = 0;
  long failed = 0;
  /// The first few failure messages.
  std::vector<std::string> failures;

  std::vector<Interval> setups;
  /// Each timed operation: a plan-cold pass, a request, a pipeline, a
  /// sweep call.
  std::vector<Interval> ops;
  Interval window;
  /// Time the loop spent recording spans (traced runs only).
  double record_seconds = 0.0;
  /// Per-layer metrics the workload measured itself; span-derived `_us`
  /// metrics are added from the tracer afterwards.
  std::map<std::string, double> layers;

  /// Records `count` failed work units with a message.
  void Fail(const std::string& message, long count = 1);
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunOptions&, Tracer&);
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// Operations of a traced run that get a span: every kSampleEvery-th.
inline constexpr int kSampleEvery = 4;

/// Replays after a traced loop stop after this share of --seconds.
inline constexpr double kReplayShare = 0.1;

/// Times `setup` into result.setups at least twice, and until a second has
/// gone by (at most 100 times). Returns the last state it built. Workloads
/// call it before the window, keeping that state, and again once the
/// window has ended, so the median covers two moments of the run.
template <typename Setup>
auto RepeatSetup(RunResult& result, Setup&& setup) {
  const Clock::time_point first = Clock::now();
  auto time_one = [&] {
    const Clock::time_point start = Clock::now();
    auto state = setup();
    result.setups.push_back({start, Clock::now()});
    return state;
  };
  auto state = time_one();
  for (int n = 1; n < 2 || (SecondsBetween(first, Clock::now()) < 1.0 && n < 100); ++n) {
    state = time_one();
  }
  return state;
}

// One entry point per workload (workload_*.cc).
RunResult RunPlanCold(const RunOptions& options, Tracer& tracer);
RunResult RunServeHot(const RunOptions& options, Tracer& tracer);
RunResult RunSimCorpus(const RunOptions& options, Tracer& tracer);
RunResult RunChurnEpisodes(const RunOptions& options, Tracer& tracer);

}  // namespace dapple::e2e
