// Sharded memoization cache for concurrent compute-once lookups. Keys are
// hashed onto independent shards (own mutex + map) so parallel workers —
// the planner's subproblem evaluators foremost — rarely contend on the same
// lock. The contract that keeps parallel searches deterministic: `compute`
// must be a pure function of the key, so whether a thread hits the cache or
// recomputes (two threads may race on the same fresh key; the loser's value
// is dropped) the returned value is bit-identical either way.
//
// Values live in the hash-map node itself, so an unbounded hit reads one
// node and a miss allocates one. Each shard may carry a capacity bound:
// when set, the shard also keeps a recency list of keys and evicts its
// least-recently-used entry on overflow. A bounded cache is what lets a
// long-lived process (the `dapple serve` daemon's plan cache) keep its memo
// table from growing without limit; eviction only ever costs recomputation,
// never correctness, because values are pure functions of their keys.
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
        return it->second.value;
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
    return it->second.value;
  }

  /// Explicit insert (most-recent position); overwrites an existing entry.
  void Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.value = std::move(value);
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
    return std::vector<Key>(s.recency.begin(), s.recency.end());
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
      s->recency.clear();
      s->hits = s->misses = 0;
      s->evictions = 0;
      s->compute_seconds = 0.0;
    }
  }

 private:
  using RecencyList = std::list<Key>;

  struct Entry {
    Value value;
    /// This key's node in the shard's recency list (bounded caches only).
    typename RecencyList::iterator position;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, Hash> map;
    /// Front = most recently used; empty when unbounded. An entry holds its
    /// node's iterator so a hit can splice it to the front in O(1).
    RecencyList recency;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    double compute_seconds = 0.0;
  };

  /// Refreshes recency; skipped when unbounded, where order is irrelevant
  /// and there is no list to splice.
  void Touch(Shard& shard, const Entry& entry) {
    if (capacity_ > 0 && entry.position != shard.recency.begin()) {
      shard.recency.splice(shard.recency.begin(), shard.recency, entry.position);
    }
  }

  void InsertLocked(Shard& shard, const Key& key, Value value) {
    auto [it, inserted] = shard.map.try_emplace(key, Entry{std::move(value), {}});
    // GetOrCompute race: another thread populated the key between our
    // unlocked compute and this insert. Keep the existing entry (values are
    // identical); try_emplace has left the map as it was.
    if (!inserted || capacity_ == 0) return;
    shard.recency.push_front(key);
    it->second.position = shard.recency.begin();
    if (shard.map.size() > capacity_) {
      shard.map.erase(shard.recency.back());
      shard.recency.pop_back();
      ++shard.evictions;
    }
  }

  Shard& ShardFor(const Key& key) { return *shards_[ShardIndex(key)]; }

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dapple
