// A probe of the shared host's speed. The host this benchmark was tuned on
// lends its cores to other machines, and how fast they run for us wanders
// by tens of percent over seconds to minutes, longer than a run. The probe
// measures that speed where the program runs: a timer interrupts the
// measuring thread every kPeriodSeconds and times a fixed chunk of work
// (inserts into a 32 KiB hash table and a sort of 512 doubles) that belongs
// to the benchmark, so no change to the program changes it. The chunk runs
// twice and only the second run is timed, so its time does not depend on
// what the program left in the caches.
//
// NominalSeconds() then scales a timing to the host's nominal speed: the
// program's time between two probes is multiplied by kNominalChunkSeconds
// over the median chunk time around it, and the probes' own time is left
// out.
#pragma once

#include <cstdint>
#include <ctime>
#include <vector>

#include "stats.h"

namespace dapple::e2e {

class HostProbe {
 public:
  /// Chunk time on the baseline host in its fast phases (see
  /// benchmark/README.md); only a unit, the same for every commit.
  static constexpr double kNominalChunkSeconds = 25e-6;
  /// Time between probes.
  static constexpr double kPeriodSeconds = 10e-3;
  /// A stretch between two probes is scaled by the median chunk time of
  /// the probes that began within this much of it.
  static constexpr double kWindowSeconds = 100e-3;

  /// Starts probing the calling thread. One probe at a time per process.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Stops the timer and prepares the record for NominalSeconds().
  void Stop();

  /// The program's time in [a, b), scaled to the nominal host speed.
  /// Needs Stop() first and at least one probe.
  double NominalSeconds(Clock::time_point a, Clock::time_point b) const;

  /// Median chunk time over the record, in seconds.
  double MedianChunkSeconds() const;

 private:
  /// Scaled program time from the first probe's begin to `t` (negative
  /// before it), `t` in CLOCK_MONOTONIC nanoseconds.
  double Scaled(std::int64_t t) const;

  bool running_ = false;
  timer_t timer_{};
  // Filled by Stop(), one entry per probe.
  std::vector<std::int64_t> begins_, ends_;
  std::vector<double> chunk_seconds_;
  /// factors_[k] scales the stretch after probe k; scaled_[k] is the scaled
  /// program time from probe 0's begin to probe k's begin.
  std::vector<double> factors_, scaled_;
};

}  // namespace dapple::e2e
