// Sharded memoization cache for concurrent compute-once lookups. Keys are
// hashed onto independent shards (own mutex + map) so parallel workers —
// the planner's subproblem evaluators foremost — rarely contend on the same
// lock. The contract that keeps parallel searches deterministic: `compute`
// must be a pure function of the key, so whether a thread hits the cache or
// recomputes (two threads may race on the same fresh key; the loser's value
// is dropped) the returned value is bit-identical either way.
//
// Each shard may carry a capacity bound: when set, the shard maintains a
// recency list and evicts its least-recently-used entry on overflow. A
// bounded cache is what lets a long-lived process (the `dapple serve`
// daemon's plan cache) keep its memo table from growing without limit;
// eviction only ever costs recomputation, never correctness, because values
// are pure functions of their keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dapple {

/// Mixes a value into a running hash seed (boost::hash_combine recipe).
inline void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/// Point-in-time statistics of one shard (or, summed, the whole cache).
struct CacheShardStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t entries = 0;
  /// Wall time spent inside `compute` on misses attributed to this shard.
  double compute_seconds = 0.0;
  /// Entries dropped by the LRU capacity bound (0 when unbounded).
  std::int64_t evictions = 0;

  double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  /// `shards` is rounded up to a power of two so the shard pick is a mask.
  /// `per_shard_capacity` bounds each shard's entry count: 0 = unbounded
  /// (no recency bookkeeping on the hit path), n > 0 = LRU-evict beyond n
  /// entries per shard (cache-wide bound = n * num_shards()).
  explicit ShardedCache(std::size_t shards = 16, std::size_t per_shard_capacity = 0)
      : capacity_(per_shard_capacity) {
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t per_shard_capacity() const { return capacity_; }

  /// Returns the cached value for `key`, or runs `compute()` and caches its
  /// result. `compute` runs outside the shard lock so slow computations do
  /// not serialize the shard; a concurrent duplicate computation is allowed
  /// and its extra result discarded (values for one key are identical).
  template <typename Compute>
  Value GetOrCompute(const Key& key, Compute&& compute) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        ++shard.hits;
        Touch(shard, it->second);
        return it->second->second;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    Value value = compute();
    const auto t1 = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.misses;
      shard.compute_seconds += std::chrono::duration<double>(t1 - t0).count();
      InsertLocked(shard, key, value);
    }
    return value;
  }

  /// Explicit lookup: the cached value (refreshing its recency) or nullopt.
  /// Counts a hit or a miss like GetOrCompute, without computing anything —
  /// the serve daemon uses this to answer from cache before paying for a
  /// planner run.
  std::optional<Value> Lookup(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    Touch(shard, it->second);
    return it->second->second;
  }

  /// Explicit insert (most-recent position); overwrites an existing entry.
  void Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      Touch(shard, it->second);
      return;
    }
    InsertLocked(shard, key, std::move(value));
  }

  /// Keys of one shard in most-recent-first order (tests pin eviction order
  /// with this; the list is only maintained when a capacity bound is set).
  std::vector<Key> ShardKeysByRecency(std::size_t shard) const {
    const Shard& s = *shards_[shard];
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<Key> keys;
    keys.reserve(s.entries.size());
    for (const auto& [key, value] : s.entries) keys.push_back(key);
    return keys;
  }

  /// The shard index `key` lands on (tests aim keys at one shard with it).
  std::size_t ShardIndex(const Key& key) const {
    return Hash{}(key) & (shards_.size() - 1);
  }

  /// Stats of one shard.
  CacheShardStats ShardStats(std::size_t shard) const {
    const Shard& s = *shards_[shard];
    std::lock_guard<std::mutex> lock(s.mu);
    return {s.hits, s.misses, static_cast<std::int64_t>(s.map.size()), s.compute_seconds,
            s.evictions};
  }

  /// Stats per shard, in shard order.
  std::vector<CacheShardStats> PerShardStats() const {
    std::vector<CacheShardStats> all;
    all.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) all.push_back(ShardStats(i));
    return all;
  }

  /// Aggregate over every shard.
  CacheShardStats TotalStats() const {
    CacheShardStats total;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const CacheShardStats s = ShardStats(i);
      total.hits += s.hits;
      total.misses += s.misses;
      total.entries += s.entries;
      total.compute_seconds += s.compute_seconds;
      total.evictions += s.evictions;
    }
    return total;
  }

  std::size_t size() const { return static_cast<std::size_t>(TotalStats().entries); }

  void Clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->map.clear();
      s->entries.clear();
      s->hits = s->misses = 0;
      s->evictions = 0;
      s->compute_seconds = 0.0;
    }
  }

 private:
  using EntryList = std::list<std::pair<Key, Value>>;

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. Entries live here; the map holds
    /// iterators so a hit can splice its entry to the front in O(1).
    EntryList entries;
    std::unordered_map<Key, typename EntryList::iterator, Hash> map;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    double compute_seconds = 0.0;
  };

  /// Refreshes recency; skipped when unbounded, where order is irrelevant
  /// and the splice would be pure overhead on the planner's hot path.
  void Touch(Shard& shard, typename EntryList::iterator it) {
    if (capacity_ > 0 && it != shard.entries.begin()) {
      shard.entries.splice(shard.entries.begin(), shard.entries, it);
    }
  }

  void InsertLocked(Shard& shard, const Key& key, Value value) {
    shard.entries.emplace_front(key, std::move(value));
    auto [it, inserted] = shard.map.emplace(key, shard.entries.begin());
    if (!inserted) {
      // GetOrCompute race: another thread populated the key between our
      // unlocked compute and this insert. Keep the existing entry (values
      // are identical) and drop the duplicate node.
      shard.entries.pop_front();
      return;
    }
    if (capacity_ > 0 && shard.map.size() > capacity_) {
      shard.map.erase(shard.entries.back().first);
      shard.entries.pop_back();
      ++shard.evictions;
    }
  }

  Shard& ShardFor(const Key& key) { return *shards_[ShardIndex(key)]; }

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dapple
