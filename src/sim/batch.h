// Parallel multi-simulation driver. Fans N independent jobs — fuzz cases,
// fault scripts, bench seeds — across a dedicated ThreadPool while keeping
// results byte-identical to a serial loop:
//
//  - outputs land in pre-sized slots indexed by job position, so result
//    order never depends on scheduling;
//  - each worker thread simulates on its own thread-local Engine
//    (Engine::Run: flatten scratch plus event-loop arena), so concurrent
//    runs share no mutable state;
//  - the first exception *by job index* wins, exactly as a serial loop
//    would throw it — not whichever worker faulted first on the clock.
//
// BatchRunner always owns its pool and never borrows ThreadPool::Shared():
// jobs routinely re-enter the shared pool themselves (an elastic replan
// invokes the parallel planner), and running a job *on* that pool would
// deadlock — ParallelFor from a worker of the same pool has no work
// stealing to fall back on.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.h"

namespace dapple {
class ThreadPool;
}  // namespace dapple

namespace dapple::sim {

struct BatchOptions {
  /// Worker threads: 1 runs jobs inline on the calling thread (no pool at
  /// all — the degenerate serial case used to prove byte-identity), 0
  /// picks the hardware concurrency, n > 1 uses exactly n.
  int threads = 1;
};

/// One simulation to run: a borrowed graph plus its engine options. The
/// graph must outlive the RunSimulations call.
struct SimJob {
  const TaskGraph* graph = nullptr;
  EngineOptions options;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Actual worker count (1 when running inline).
  int threads() const { return threads_; }

  /// Runs body(i) for i in [0, count), inline when threads() == 1,
  /// otherwise across the pool. Blocks until every index finished; if any
  /// bodies threw, rethrows the one with the lowest index.
  void ForEach(int count, const std::function<void(int)>& body);

  /// ForEach that collects body(i) into slot i. R must be default-
  /// constructible and movable.
  template <typename R>
  std::vector<R> Map(int count, const std::function<R(int)>& body) {
    std::vector<R> out(static_cast<std::size_t>(count));
    ForEach(count, [&](int i) { out[static_cast<std::size_t>(i)] = body(i); });
    return out;
  }

  /// Simulates every job; result i corresponds to jobs[i].
  std::vector<SimResult> RunSimulations(const std::vector<SimJob>& jobs);

 private:
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when running inline
};

}  // namespace dapple::sim
