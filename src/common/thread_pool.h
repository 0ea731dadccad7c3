// The one parallel-for of the code base: the planner's per-level
// subproblem evaluations, the Session's simulated re-rank and every sweep
// (fuzz, fault, scenario, serve batches, benches) fan independent bodies
// out through ThreadPool::ParallelFor or its slot-collecting Map.
//
// Determinism: the pool guarantees completion, not ordering, so callers
// write each body's output to a pre-sized slot indexed by the loop
// variable (Map does exactly that). Errors are ordered too: ParallelFor
// runs every index, then rethrows the exception of the lowest index that
// threw — the one a serial loop would meet first — never whichever worker
// faulted first on the clock.
//
// Thread counts: ThreadPool(0) sizes the pool to the hardware concurrency;
// ThreadPool(1) starts no worker at all and runs every body inline on the
// calling thread, the degenerate serial case determinism tests compare
// against.
//
// Deadlock rule: never call ParallelFor on a pool from inside one of its
// own tasks. A worker blocked in the nested call waits for tasks queued
// behind it, and there is no work stealing to fall back on. A fan-out whose
// bodies may plan on ThreadPool::Shared() (an elastic replan runs the
// parallel planner) therefore builds a pool of its own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dapple {

class ThreadPool {
 public:
  /// `threads` of 0 picks the hardware concurrency (at least 1); 1 runs
  /// inline on the caller without starting a worker. Throws dapple::Error,
  /// after joining the workers that did start, when a thread fails to start.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count; 1 for the inline pool.
  std::size_t num_threads() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Runs body(i) for every i in [0, count) across the pool and blocks until
  /// all have finished. If any bodies threw, rethrows the exception of the
  /// lowest throwing index.
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& body);

  /// ParallelFor that collects body(i) into slot i. R must be default-
  /// constructible and movable.
  template <class R, class Body>
  std::vector<R> Map(std::size_t count, const Body& body) {
    std::vector<R> out(count);
    ParallelFor(count, [&](std::size_t i) { out[i] = body(i); });
    return out;
  }

  /// Process-wide hardware-sized pool (lazily constructed).
  static ThreadPool& Shared();

 private:
  /// Enqueues every task under one lock acquisition and wakes all workers
  /// once — the planner submits whole search levels at a time, where
  /// per-task locking is measurable overhead.
  void SubmitBatch(std::vector<std::function<void()>> tasks);
  /// Blocks until every task submitted so far has finished.
  void Wait();
  void WorkerLoop();
  /// Wakes every worker to drain the queue and exit, then joins them.
  void StopAndJoin();

  std::vector<std::thread> workers_;  // empty for the inline pool
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace dapple
