// Unit coverage for the obs metrics instruments, centered on the
// Histogram quantile edge cases the log-bucket grid makes subtle: the
// empty histogram, a single sample, many samples in one bucket, and
// high quantiles on tiny counts — p99 of two samples must be the upper
// sample (nearest-rank), not the lower (a floor-based rank's answer) —
// plus reads racing observations and the registry's lookup contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "obs/metrics.h"

namespace dapple::obs {
namespace {

TEST(HistogramTest, EmptyHistogramIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  // The bucket's upper edge is clamped to the observed [min, max], so a
  // lone sample comes back exactly — no bucket-resolution fuzz.
  Histogram h;
  h.Observe(0.0371);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0371);
  EXPECT_DOUBLE_EQ(h.min(), 0.0371);
  EXPECT_DOUBLE_EQ(h.max(), 0.0371);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0371);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.0371) << "q=" << q;
  }
}

TEST(HistogramTest, AllSamplesInOneBucketCollapseEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(2.5);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 2.5) << "q=" << q;
  }
}

TEST(HistogramTest, HighQuantileOfTwoSamplesIsTheUpperSample) {
  // Nearest-rank: p99 rank is ceil(0.99 * 2) - 1 = 1, the upper sample.
  // The old floor rank floor(0.99 * 1) = 0 answered the *lower* sample —
  // a p99 below p50 territory on small counts.
  Histogram h;
  h.Observe(1.0);
  h.Observe(100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.51), 100.0);
  // p50 and below land in the lower sample's bucket; its upper edge is
  // within one bucket width (~14%) of the sample.
  EXPECT_GE(h.Quantile(0.50), 1.0);
  EXPECT_LE(h.Quantile(0.50), 1.2);
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(0.0), 1.2);
}

TEST(HistogramTest, QuantileIsMonotoneAndBracketedByMinMax) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i) * 0.01);
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "quantiles must be monotone in q, q=" << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // Out-of-range q clamps rather than indexing out of the grid.
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), h.Quantile(1.0));
}

TEST(HistogramTest, OutOfGridSamplesSaturateToTheEdgeBuckets) {
  // Samples below kBucketMin or above kBucketMax still count, and min/max
  // record the exact values; quantiles, however, can only answer at bucket
  // resolution, so they saturate to the grid's edge buckets.
  Histogram h;
  h.Observe(1e-12);
  h.Observe(1e9);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), 1e-12);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_NEAR(h.Quantile(0.99), Histogram::kBucketMax, 1.0);
  EXPECT_GE(h.Quantile(0.0), Histogram::kBucketMin);
  EXPECT_LE(h.Quantile(0.0), Histogram::kBucketMin * 1.2);
}

TEST(HistogramTest, ReadsBesideConcurrentObservesSeeWholeSamples) {
  // Every accessor takes the histogram's mutex, so a reader racing a
  // writer sees a consistent summary (the ThreadSanitizer tier runs this).
  // Each sample is 1.0: the mean is exactly 1 once anything is counted,
  // and the count never goes backwards.
  constexpr int kSamples = 20000;
  Histogram h;
  std::thread writer([&] {
    for (int i = 0; i < kSamples; ++i) h.Observe(1.0);
  });
  std::int64_t last = 0;
  while (last < kSamples) {
    const std::int64_t count = h.count();
    EXPECT_GE(count, last);
    last = count;
    const double mean = h.mean();
    EXPECT_TRUE(mean == 0.0 || mean == 1.0) << mean;
    EXPECT_LE(h.max(), 1.0);
    EXPECT_LE(h.sum(), static_cast<double>(kSamples));
    (void)h.Quantile(0.99);
  }
  writer.join();
  EXPECT_EQ(h.count(), kSamples);
  EXPECT_EQ(h.sum(), static_cast<double>(kSamples));
  EXPECT_EQ(h.min(), 1.0);
}

TEST(MetricsRegistryTest, InstrumentsPersistUnderTheirNames) {
  // Lookup creates on first use and returns the same instrument after, so
  // a cached reference and a fresh lookup see one value.
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  c.Increment();
  registry.counter("c").Increment(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(&registry.counter("c"), &c);
  EXPECT_EQ(registry.counter("other").value(), 0);

  Histogram& h = registry.histogram("h");
  registry.histogram("h").Observe(1.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(&registry.histogram("h"), &h);
  // Counters and histograms are separate namespaces.
  EXPECT_EQ(registry.histogram("c").count(), 0);
}

}  // namespace
}  // namespace dapple::obs
