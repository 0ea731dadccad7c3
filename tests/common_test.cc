#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace dapple {
namespace {

TEST(Units, ByteLiteralsAndConversions) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(MiB(26.0), 26ull * 1024 * 1024);
  EXPECT_EQ(GiB(1.5), 3ull * 512 * 1024 * 1024);
}

TEST(Units, BandwidthConversions) {
  // 25 Gbps Ethernet = 3.125 GB/s.
  EXPECT_DOUBLE_EQ(Gbps(25.0), 3.125e9);
  EXPECT_DOUBLE_EQ(GBps(130.0), 130e9);
}

TEST(Units, FormatBytesPicksSuffix) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(26_MiB), "26.0MB");
  EXPECT_EQ(FormatBytes(16_GiB), "16.0GB");
}

TEST(Units, FormatTimePicksUnit) {
  EXPECT_EQ(FormatTime(5e-9), "5.0ns");
  EXPECT_EQ(FormatTime(30e-6), "30.0us");
  EXPECT_EQ(FormatTime(0.1325), "132.5ms");
  EXPECT_EQ(FormatTime(2.5), "2.50s");
}

TEST(Units, ParseBytesRejectsOutOfRangeAndNonDecimalSizes) {
  // None of these is a decimal size below 2^64 bytes; the infinite and
  // huge ones once went through an out-of-range double-to-integer cast.
  for (const char* text : {"inf", "INF", "infinity", "nan", "1e400", "0x10", "0x1p4",
                           "99999999999999999999GiB", "18446744073709551616", "16777216TiB"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(ParseBytes(text), Error);
  }
  try {
    ParseBytes("inf");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "cannot parse byte size 'inf'");
  }
  // Decimal sizes right below 2^64 bytes still parse; exponents are decimal.
  EXPECT_EQ(ParseBytes("1e3"), 1000u);
  EXPECT_EQ(ParseBytes("16777215TiB"), 16777215ull * 1024 * 1_GiB);
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    DAPPLE_CHECK(1 == 2) << "context " << 42;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Error, ComparisonMacros) {
  EXPECT_NO_THROW(DAPPLE_CHECK_GE(2, 2));
  EXPECT_NO_THROW(DAPPLE_CHECK_LT(1, 2));
  EXPECT_THROW(DAPPLE_CHECK_GT(1, 2), Error);
  EXPECT_THROW(DAPPLE_CHECK_EQ(1, 2), Error);
  EXPECT_THROW(DAPPLE_CHECK_NE(3, 3), Error);
}

TEST(Table, RendersAlignedCells) {
  AsciiTable t({"Model", "Params"});
  t.AddRow({"BERT-48", "640M"});
  t.AddSeparator();
  t.AddRow({"X", "1"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| Model   | Params |"), std::string::npos);
  EXPECT_NE(out.find("| BERT-48 | 640M   |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);  // 2 rows + separator
}

TEST(Table, RejectsArityMismatch) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), Error);
}

TEST(Table, NumericHelpers) {
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::Int(-42), "-42");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng rng(42);
  const auto s1 = rng.Fork();
  const auto s2 = rng.Fork();
  EXPECT_NE(s1, s2);
}

TEST(LruCache, LruEvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(/*capacity=*/3);
  EXPECT_FALSE(cache.Insert(1, 10));
  EXPECT_FALSE(cache.Insert(2, 20));
  EXPECT_FALSE(cache.Insert(3, 30));
  EXPECT_EQ(cache.KeysByRecency(), (std::vector<int>{3, 2, 1}));

  // A hit refreshes recency: 1 moves to the front, 2 becomes the LRU.
  EXPECT_EQ(cache.Lookup(1).value(), 10);
  EXPECT_EQ(cache.KeysByRecency(), (std::vector<int>{1, 3, 2}));

  // The fourth key evicts 2, and Insert says so.
  EXPECT_TRUE(cache.Insert(4, 40));
  EXPECT_EQ(cache.KeysByRecency(), (std::vector<int>{4, 1, 3}));
  EXPECT_FALSE(cache.Lookup(2).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().entries, 3);

  // Every cache is bounded: there is no capacity-0 mode.
  EXPECT_THROW((LruCache<int, int>(0)), Error);
}

TEST(LruCache, InsertOverwriteRefreshesRecency) {
  LruCache<int, int> cache(/*capacity=*/2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  EXPECT_FALSE(cache.Insert(1, 11));  // overwrite, not a new entry
  EXPECT_EQ(cache.KeysByRecency(), (std::vector<int>{1, 2}));
  EXPECT_EQ(cache.Lookup(1).value(), 11);
  EXPECT_EQ(cache.Stats().entries, 2);
  EXPECT_EQ(cache.Stats().evictions, 0);
}

TEST(LruCache, BoundedCacheIsThreadSafe) {
  // Hammer a small bounded cache from many threads with a mixed
  // Lookup/Insert workload; the capacity invariant must hold throughout and
  // every returned value must match its key (values are a pure function of
  // the key, so eviction races can never surface a wrong value).
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  constexpr std::size_t kCapacity = 8;
  LruCache<int, int> cache(kCapacity);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (i * 7 + t * 13) % 64;
        if (i % 2 == 0) {
          if (cache.Lookup(key).value_or(key * 3) != key * 3) ok = false;
        } else {
          cache.Insert(key, key * 3);
        }
        if (cache.Stats().entries > static_cast<std::int64_t>(kCapacity)) ok = false;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cache.Stats().entries, static_cast<std::int64_t>(kCapacity));
  // Lookup is the only op that counts a hit or a miss: the even half of
  // each thread's ops.
  EXPECT_EQ(cache.Stats().hits + cache.Stats().misses,
            static_cast<std::int64_t>(kThreads) * (kOpsPerThread / 2));
}

TEST(LruCache, RacingInsertsKeepTheRecencyListInStepWithTheMap) {
  // Eight threads released together insert the same 64 keys, each thread in
  // its own order, into a cache of capacity 8, so racing inserts overwrite
  // and evict. Afterwards the recency list must hold exactly the keys the
  // map answers for, and every eviction Insert reported must be counted.
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr std::size_t kCapacity = 8;
  LruCache<int, int> cache(kCapacity);
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> reported_evictions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kKeys; ++i) {
        const int key = (i * 5 + t * 11) % kKeys;
        if (cache.Insert(key, key * 3 + 1)) ++reported_evictions;
      }
    });
  }
  go = true;
  for (auto& th : threads) th.join();

  std::vector<int> listed = cache.KeysByRecency();
  EXPECT_EQ(static_cast<std::int64_t>(listed.size()), cache.Stats().entries);
  EXPECT_EQ(listed.size(), kCapacity);
  EXPECT_EQ(reported_evictions.load(), cache.Stats().evictions);
  std::sort(listed.begin(), listed.end());
  EXPECT_TRUE(std::adjacent_find(listed.begin(), listed.end()) == listed.end());
  std::vector<int> held;
  for (int key = 0; key < kKeys; ++key) {
    if (const std::optional<int> value = cache.Lookup(key)) {
      EXPECT_EQ(*value, key * 3 + 1);
      held.push_back(key);
    }
  }
  EXPECT_EQ(held, listed);
}

}  // namespace
}  // namespace dapple
