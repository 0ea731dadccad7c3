// Capacity-bounded LRU cache behind one mutex: the `dapple serve` daemon's
// plan cache. It holds at most `capacity` entries and keeps a recency list
// of its keys, evicting the least-recently-used entry on overflow, so a
// long-lived process keeps its cache from growing without limit. Eviction
// only ever costs recomputation, never correctness, because cached values
// are pure functions of their keys. Callers compute a missing value outside
// the lock (Lookup, compute, Insert), so a hit holds the lock for one hash
// lookup and one list splice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"

namespace dapple {

/// Point-in-time statistics of an LruCache.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t entries = 0;
  /// Entries dropped by the capacity bound.
  std::int64_t evictions = 0;

  double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// Holds at most `capacity` (>= 1) entries.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    DAPPLE_CHECK_GE(capacity, std::size_t{1});
  }

  std::size_t capacity() const { return capacity_; }

  /// The cached value (refreshing its recency) or nullopt; counts a hit or
  /// a miss.
  std::optional<Value> Lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    Touch(it->second);
    return it->second.value;
  }

  /// Inserts at the most-recent position, overwriting an existing entry.
  /// Returns true iff the insert evicted the least-recently-used entry.
  bool Insert(const Key& key, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = map_.find(key); it != map_.end()) {
      it->second.value = std::move(value);
      Touch(it->second);
      return false;
    }
    auto it = map_.emplace(key, Entry{std::move(value), {}}).first;
    recency_.push_front(key);
    it->second.position = recency_.begin();
    if (map_.size() <= capacity_) return false;
    map_.erase(recency_.back());
    recency_.pop_back();
    ++evictions_;
    return true;
  }

  /// Keys in most-recent-first order (tests pin eviction order with this).
  std::vector<Key> KeysByRecency() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Key>(recency_.begin(), recency_.end());
  }

  CacheStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, static_cast<std::int64_t>(map_.size()), evictions_};
  }

 private:
  using RecencyList = std::list<Key>;

  struct Entry {
    Value value;
    /// This key's node in the recency list.
    typename RecencyList::iterator position;
  };

  void Touch(const Entry& entry) {
    if (entry.position != recency_.begin()) {
      recency_.splice(recency_.begin(), recency_, entry.position);
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, Hash> map_;
  /// Front = most recently used. An entry holds its node's iterator so a
  /// hit can splice it to the front in O(1).
  RecencyList recency_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace dapple
