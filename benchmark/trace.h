// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded only by benchmark code, around calls into the library's public
// entry points: one span per sampled operation, plus replay spans for the
// layer entry points that operation composes. Each recording thread owns a
// SpanBuffer, so recording takes no lock; the buffers are merged and
// written out once the run has ended.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats.h"

namespace dapple::e2e {

/// One timed call. Operation spans have parent -1; replay spans name the
/// operation span that caused them.
struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t op = 0;
  Clock::time_point start;
  Clock::time_point end;
  int thread = 0;

  double seconds() const { return SecondsBetween(start, end); }
};

/// Spans of one recording thread. Not thread-safe: one buffer per thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(int thread) : thread_(thread) {}

  /// Records a finished span and returns its id.
  std::int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
                   std::int64_t op, std::int64_t parent = -1);

  /// Runs `fn`, recording it as a span named `name` under `parent`, and
  /// returns what `fn` returns.
  template <typename Fn>
  auto Time(const char* name, std::int64_t op, std::int64_t parent, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Add(name, start, Clock::now(), op, parent);
    } else {
      auto result = fn();
      Add(name, start, Clock::now(), op, parent);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::int64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Per-layer digest of the recorded spans (the `<workload>.layers.json`
/// rows). `share` is the layer's total time over the total time of the
/// operation spans that caused it; for operation spans, over all
/// operation spans.
struct LayerSummary {
  std::string name;
  long calls = 0;
  double total_seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double share = 0.0;
};

class Tracer {
 public:
  /// A new buffer for one recording thread; the address stays valid for
  /// the tracer's lifetime.
  SpanBuffer& NewBuffer();

  /// Median and p99 duration of the spans named `name`, in microseconds
  /// (0 when none were recorded).
  std::pair<double, double> MedianAndP99Us(const std::string& name) const;

  /// Chrome trace-event JSON ("traceEvents" of complete "X" events, one
  /// thread row per recording thread), as sim/chrome_trace writes it.
  void WriteChromeTrace(const std::string& path, const std::string& process_name) const;

  /// The per-layer digest as a JSON document.
  void WriteLayers(const std::string& path, const std::string& workload) const;

 private:
  /// Every recorded span, in start order.
  std::vector<Span> Spans() const;
  std::vector<LayerSummary> Layers() const;

  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  // guarded by mu_
};

}  // namespace dapple::e2e
