// Per-device memory pool accounting. Tracks current/peak usage over
// simulated time plus an explicit (time, bytes) trajectory so benches can
// reproduce the paper's Fig. 3(c) memory-over-time curves for GPipe vs
// DAPPLE.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"

namespace dapple::sim {

/// One observed change of a pool's resident bytes.
struct MemorySample {
  TimeSec time = 0.0;
  Bytes bytes = 0;
};

/// Memory pool with a static baseline (weights + optimizer slots) and
/// dynamic activation traffic applied by the engine as tasks start/finish.
class MemoryPool {
 public:
  /// `capacity` of 0 means unlimited (no OOM detection). The timeline is
  /// reserved for `events` allocs/frees, each adding at most one sample,
  /// plus the baseline sample, so a caller that knows its traffic up front
  /// sizes it once.
  explicit MemoryPool(Bytes capacity = 0, std::size_t events = 0);

  /// Sets the always-resident bytes (parameters, gradients, optimizer
  /// state). Must be called before any traffic.
  void SetBaseline(Bytes bytes);

  void Allocate(TimeSec now, Bytes bytes);
  void Free(TimeSec now, Bytes bytes);

  Bytes baseline() const { return baseline_; }
  Bytes current() const { return current_; }
  Bytes peak() const { return peak_; }
  /// First simulated instant the peak was resident. Tracked incrementally —
  /// O(1) per alloc/free — so reports never rescan the timeline. The instant
  /// counts even when the bytes are freed at the same timestamp (a transient
  /// spike coalesced away in timeline()): the high-water mark is about what
  /// the device must physically hold, however briefly.
  TimeSec peak_time() const { return peak_time_; }
  Bytes capacity() const { return capacity_; }

  /// True iff the peak ever exceeded a nonzero capacity.
  bool oom() const { return capacity_ != 0 && peak_ > capacity_; }

  /// Full usage trajectory, one sample per change (plus the initial
  /// baseline sample at t=0).
  const std::vector<MemorySample>& timeline() const { return timeline_; }

 private:
  void Record(TimeSec now);

  Bytes capacity_;
  Bytes baseline_ = 0;
  Bytes current_ = 0;
  Bytes peak_ = 0;
  TimeSec peak_time_ = 0.0;
  std::vector<MemorySample> timeline_;
};

}  // namespace dapple::sim
