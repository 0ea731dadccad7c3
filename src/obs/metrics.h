// Process-wide metrics registry: named counters and histograms that some
// reader looks up by name. A quantity the caller already receives in a
// result struct (PlannerSearchStats on PlanResult, serve::ServerStats,
// EpisodeReport, CoScheduleReport) is reported there and not copied here.
// The registry holds exactly these instruments, each with its reader:
//
//   benchmark/stats.cc, the end-to-end benchmark's per-layer metrics:
//     counters   planner.candidates_evaluated, planner.cache.hits,
//                planner.cache.misses, planner.estimator_calls,
//                sim.tasks_executed
//     histograms planner.parallel.wall_seconds (sum),
//                planner.cache.compute_seconds (sum),
//                fault.replan.wall_seconds (sum)
//   bench_scenario: counters fault.replan.runs, fault.replan.memo_hits
//   tests, with no other channel: counters
//     planner.placement_memo.{fills,hits,clears} (planner_test) and
//     report.peak_vs_m.skipped (obs_report_test)
//   "nothing falls back silently": counters planner.recompute_fallbacks
//     and dapple.session.recompute_retries
//
// obs_report_test's MetricsRegistry.BenchmarkNamesGrowWithTheirWriters
// pins the benchmark's and bench_scenario's names.
// Serve's request latency is not here: each serve::Server owns one
// Histogram per request kind, so `stats` reports that server alone.
//
// Instruments may be created from concurrent threads (the planner evaluates
// candidates on a thread pool). A Counter update is one lock-free atomic; a
// Histogram observation or read takes that histogram's mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dapple::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Count/sum/min/max summary of observed samples plus a fixed logarithmic
/// bucket grid for quantile estimates. Enough to answer "how many, how big
/// on average, what were the extremes, where do p50/p95/p99 sit" without
/// storing the stream; full distributions belong in traces, not metrics.
class Histogram {
 public:
  /// Fixed log-scale grid: kNumBuckets buckets spanning [kBucketMin,
  /// kBucketMax) with ~14% per-bucket resolution, plus implicit under/
  /// overflow at the ends. Covers nanoseconds through days when samples
  /// are seconds — the serve daemon's request-latency range and then some.
  static constexpr int kNumBuckets = 256;
  static constexpr double kBucketMin = 1e-9;
  static constexpr double kBucketMax = 1e6;

  void Observe(double v);

  /// Each read takes the mutex, so it may run beside Observe.
  std::int64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double mean() const;

  /// Estimated q-th quantile (0 <= q <= 1) from the bucket grid: the upper
  /// boundary of the bucket holding the rank, clamped to the exact observed
  /// [min, max]. Within one bucket width (~14%) of the true order
  /// statistic; 0 when nothing was observed.
  double Quantile(double q) const;

 private:
  /// Bucket index of one sample (clamped to the grid's ends).
  static int BucketOf(double v);

  mutable std::mutex mu_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::int64_t buckets_[kNumBuckets] = {};
};

/// Named instrument registry. Lookup creates on first use; instruments live
/// for the registry's lifetime, so callers may cache the returned reference.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// The process-wide registry the library's built-in instrumentation feeds.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dapple::obs
