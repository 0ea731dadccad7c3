#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "common/error.h"

namespace dapple {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads == 1) return;  // inline: ParallelFor runs on the caller
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (const std::exception& e) {
    // The destructor does not run for a half-built pool, and destroying a
    // joinable std::thread terminates the process.
    const std::size_t started = workers_.size();
    StopAndJoin();
    throw Error("ThreadPool: started " + std::to_string(started) + " of " +
                std::to_string(threads) + " worker threads: " + e.what());
  }
}

ThreadPool::~ThreadPool() { StopAndJoin(); }

void ThreadPool::StopAndJoin() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::function<void()>& task : tasks) {
      queue_.push(std::move(task));
      ++in_flight_;
    }
  }
  work_available_.notify_all();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // In index order, so the first error caught is the lowest.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr lowest_error;
  std::size_t lowest_index = count;
  std::mutex error_mutex;
  const std::size_t shards = std::min(count, workers_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tasks.push_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < lowest_index) {
            lowest_index = i;
            lowest_error = std::current_exception();
          }
        }
      }
    });
  }
  SubmitBatch(std::move(tasks));
  Wait();
  if (lowest_error) std::rethrow_exception(lowest_error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace dapple
