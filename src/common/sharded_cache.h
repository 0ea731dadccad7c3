// Sharded, capacity-bounded LRU cache: the `dapple serve` daemon's plan
// cache. Keys are hashed onto independent shards (own mutex + map) so
// concurrent request workers rarely contend on the same lock. Each shard
// holds at most `per_shard_capacity` entries and keeps a recency list of its
// keys, evicting the least-recently-used entry on overflow, so a long-lived
// process keeps its cache from growing without limit. Eviction only ever
// costs recomputation, never correctness, because cached values are pure
// functions of their keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"

namespace dapple {

/// Point-in-time statistics of one shard (or, summed, the whole cache).
struct CacheShardStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t entries = 0;
  /// Entries dropped by the LRU capacity bound.
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
  /// `per_shard_capacity` (>= 1) bounds each shard's entry count; the
  /// cache-wide bound is per_shard_capacity * num_shards().
  ShardedCache(std::size_t shards, std::size_t per_shard_capacity)
      : capacity_(per_shard_capacity) {
    DAPPLE_CHECK_GE(per_shard_capacity, std::size_t{1});
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t per_shard_capacity() const { return capacity_; }

  /// The cached value (refreshing its recency) or nullopt; counts a hit or
  /// a miss. The serve daemon answers from cache with this before paying
  /// for a planner run.
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

  /// Inserts at the most-recent position, overwriting an existing entry and
  /// evicting the shard's least-recently-used entry beyond capacity.
  void Insert(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      it->second.value = std::move(value);
      Touch(shard, it->second);
      return;
    }
    auto it = shard.map.emplace(key, Entry{std::move(value), {}}).first;
    shard.recency.push_front(key);
    it->second.position = shard.recency.begin();
    if (shard.map.size() > capacity_) {
      shard.map.erase(shard.recency.back());
      shard.recency.pop_back();
      ++shard.evictions;
    }
  }

  /// Keys of one shard in most-recent-first order (tests pin eviction order
  /// with this).
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
    return {s.hits, s.misses, static_cast<std::int64_t>(s.map.size()), s.evictions};
  }

  /// Aggregate over every shard.
  CacheShardStats TotalStats() const {
    CacheShardStats total;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const CacheShardStats s = ShardStats(i);
      total.hits += s.hits;
      total.misses += s.misses;
      total.entries += s.entries;
      total.evictions += s.evictions;
    }
    return total;
  }

 private:
  using RecencyList = std::list<Key>;

  struct Entry {
    Value value;
    /// This key's node in the shard's recency list.
    typename RecencyList::iterator position;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, Hash> map;
    /// Front = most recently used. An entry holds its node's iterator so a
    /// hit can splice it to the front in O(1).
    RecencyList recency;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };

  static void Touch(Shard& shard, const Entry& entry) {
    if (entry.position != shard.recency.begin()) {
      shard.recency.splice(shard.recency.begin(), shard.recency, entry.position);
    }
  }

  Shard& ShardFor(const Key& key) { return *shards_[ShardIndex(key)]; }

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dapple
