#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace dapple::obs {

int Histogram::BucketOf(double v) {
  if (!(v > kBucketMin)) return 0;
  if (v >= kBucketMax) return kNumBuckets - 1;
  // Buckets are uniform in log space: index i covers
  // [min * r^i, min * r^(i+1)) with r = (max/min)^(1/kNumBuckets).
  static const double kLogMin = std::log(kBucketMin);
  static const double kLogRange = std::log(kBucketMax) - kLogMin;
  const int index =
      static_cast<int>((std::log(v) - kLogMin) / kLogRange * kNumBuckets);
  return std::clamp(index, 0, kNumBuckets - 1);
}

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[BucketOf(v)];
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? min_ : 0.0;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? max_ : 0.0;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank order statistic: the smallest sample with cumulative
  // frequency >= q, i.e. zero-based rank ceil(q * count) - 1. Floor-based
  // ranks undershoot on small counts — p99 of two samples must be the
  // upper one, not the lower.
  const std::int64_t rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(
          std::ceil(q * static_cast<double>(count_))) - 1,
      0, count_ - 1);
  std::int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      static const double kLogMin = std::log(kBucketMin);
      static const double kLogRange = std::log(kBucketMax) - kLogMin;
      const double upper =
          std::exp(kLogMin + kLogRange * static_cast<double>(i + 1) / kNumBuckets);
      return std::clamp(upper, min_, max_);
    }
  }
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace dapple::obs
