#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"

namespace dapple {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // count==1 runs inline on the caller
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](std::size_t i) {
                                  if (i == 13) throw Error("boom");
                                }),
               Error);
  // Pool still usable afterwards.
  std::atomic<int> counter{0};
  pool.ParallelFor(8, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ConcurrentThrowsLeaveExactlyOneAndAUsablePool) {
  // Stress the ParallelFor exception path with *genuinely concurrent*
  // throws: each body spin-waits until all kWorkers bodies have entered
  // (a spinning body pins its worker thread, so with exactly kWorkers
  // tasks on a kWorkers-thread pool, all of them throw in parallel).
  // Exactly one exception — the lowest index's — must escape the call; the
  // rest are swallowed, and the pool must stay fully usable afterwards.
  constexpr std::size_t kWorkers = 8;
  ThreadPool pool(kWorkers);
  ASSERT_EQ(pool.num_threads(), kWorkers);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::size_t> entered{0};
    std::atomic<int> thrown{0};
    bool caught = false;
    try {
      pool.ParallelFor(kWorkers, [&](std::size_t i) {
        entered.fetch_add(1);
        while (entered.load() < kWorkers) std::this_thread::yield();
        thrown.fetch_add(1);
        throw Error("boom-" + std::to_string(i));
      });
    } catch (const Error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "boom-0") << "round " << round;
    }
    EXPECT_TRUE(caught) << "round " << round;
    EXPECT_EQ(thrown.load(), static_cast<int>(kWorkers)) << "round " << round;

    std::atomic<int> counter{0};
    pool.ParallelFor(64, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 64) << "round " << round;
  }
}

TEST(ThreadPool, DeterministicResultSlots) {
  ThreadPool pool(8);
  std::vector<double> out(1000);
  pool.ParallelFor(out.size(), [&](std::size_t i) { out[i] = i * 0.5; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_DOUBLE_EQ(out[i], i * 0.5);
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().num_threads(), 1u);
}

TEST(ThreadPool, OneThreadRunsEveryBodyInlineOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  pool.ParallelFor(ran_on.size(), [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < ran_on.size(); ++i) EXPECT_EQ(ran_on[i], caller) << "index " << i;

  // Inline, too, every index runs and the lowest throwing one surfaces.
  int ran = 0;
  try {
    pool.ParallelFor(64, [&](std::size_t i) {
      ++ran;
      if (i == 3 || i == 7) throw Error("boom-" + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom-3");
  }
  EXPECT_EQ(ran, 64);
}

TEST(ThreadPool, LowestIndexExceptionWinsOverTheFirstThrown) {
  // Index 0 throws last on the wall clock; every other index throws at
  // once. The call must still surface index 0's exception, as a serial loop
  // would.
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.ParallelFor(64, [](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw Error("boom-" + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "boom-0") << "round " << round;
    }
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized =
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

/// Death-test child: caps the address space 256 MiB above what the process
/// already maps, far below 1000 default-sized thread stacks, so some
/// std::thread fails to start. Exits 0 when the pool throws dapple::Error.
/// A pool that leaves the started threads joinable terminates instead, or
/// hangs, which the alarm turns into a signal death.
void StartOneThousandWorkersUnderAnAddressCap() {
  alarm(20);
  unsigned long pages = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (!statm || std::fscanf(statm, "%lu", &pages) != 1) std::_Exit(3);
  std::fclose(statm);
  const rlim_t cap = static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                     (rlim_t{256} << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  try {
    ThreadPool pool(1000);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(0);
  }
  std::_Exit(4);  // every thread started: the cap did not bite
}

TEST(ThreadPoolDeathTest, ThreadStartFailureThrowsAfterJoiningTheStarted) {
  // Sanitizer runtimes reserve terabytes of shadow address space, so an
  // address-space cap breaks them before it reaches the pool.
  if (kSanitized) GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow memory";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(StartOneThousandWorkersUnderAnAddressCap(), ::testing::ExitedWithCode(0),
              "ThreadPool: started [0-9]+ of 1000 worker threads");
}

}  // namespace
}  // namespace dapple
