// Process-wide metrics registry: named counters, gauges and histograms fed
// by the engine (tasks executed, simulations run) and the planner
// (candidates evaluated/pruned per DP level, estimator calls). Cheap enough
// to stay always-on — counters are single atomics. Readers look instruments
// up by name: serve `stats` reports the serve.latency.* histograms, the
// end-to-end benchmark (benchmark/stats.cc) snapshots eight planner, sim
// and fault names, and bench_scenario reads the two fault.replan counters.
// ToJson/ToText render the whole registry; only metrics_test calls them.
//
// Instruments may be created from concurrent threads (the planner evaluates
// candidates on a thread pool). Counter and Gauge updates are lock-free
// single atomics; a Histogram observation takes that histogram's mutex.
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

/// Last-written floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
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

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

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
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Drops every instrument (tests isolate themselves with this).
  void Reset();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,...}}},
  /// keys sorted, deterministic for a deterministic workload.
  std::string ToJson() const;

  /// Aligned `name value` lines grouped by instrument kind.
  std::string ToText() const;

  /// The process-wide registry the library's built-in instrumentation feeds.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dapple::obs
