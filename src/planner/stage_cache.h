// Memoization layer of the parallel planner search. The DP enumerates tens
// of thousands of candidate plans, but they are assembled from a much
// smaller vocabulary of stages: the cost of "layers [b, e) on these devices
// at this micro-batch size" is identical in every candidate that carves
// that stage. The StageCostCache memoizes exactly that vocabulary — per
// computation stage and per cross-stage boundary — keyed by (layer range,
// device-subset signature, replication-bearing micro-batch size), sharded
// so concurrent subproblem evaluators do not contend on one lock. A
// stage's peak-memory piece is not memoized: it is a few prefix-sum reads,
// cheaper than the lookup that would replace it.
//
// Determinism contract: every cached value is a pure function of its key
// (plus the estimator's fixed model/cluster/options), so a lookup is
// bit-identical to a recomputation and the search result cannot depend on
// which thread populated an entry first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sharded_cache.h"
#include "planner/latency.h"
#include "topo/device_set.h"

namespace dapple::planner {

/// One memo key. Device subsets are encoded as 64-bit occupancy masks
/// (exact ids — heterogeneous clusters price the same count differently on
/// different machines), which keeps the key a flat POD: the estimator
/// performs tens of millions of lookups per search, so key construction
/// must not allocate. Clusters with more than 64 devices simply run
/// uncached (the planner never attaches a cache for them). For kComm
/// `mask_a`/`mask_b` are the two boundary sides; for kComp `aux` is the
/// recompute flag.
struct StageCostKey {
  enum class Kind : std::uint8_t { kComp = 0, kComm = 1 };

  Kind kind = Kind::kComp;
  std::int32_t layer_begin = 0;
  std::int32_t layer_end = 0;
  std::int32_t micro_batch_size = 0;
  std::int32_t aux = 0;
  std::uint64_t mask_a = 0;
  std::uint64_t mask_b = 0;

  bool operator==(const StageCostKey& other) const = default;
};

struct StageCostKeyHash {
  std::size_t operator()(const StageCostKey& key) const {
    std::size_t seed = static_cast<std::size_t>(key.kind);
    HashCombine(seed, static_cast<std::size_t>(key.layer_begin));
    HashCombine(seed, static_cast<std::size_t>(key.layer_end));
    HashCombine(seed, static_cast<std::size_t>(key.micro_batch_size));
    HashCombine(seed, static_cast<std::size_t>(key.aux));
    HashCombine(seed, static_cast<std::size_t>(key.mask_a));
    HashCombine(seed, static_cast<std::size_t>(key.mask_b));
    return seed;
  }
};

/// Largest cluster a StageCostKey can describe (one occupancy bit per
/// device). The planner disables the cache past this — correctness never
/// depends on it.
inline constexpr int kStageCacheMaxDevices = 64;

class StageCostCache {
 public:
  /// Unbounded: one search owns the cache and drops it on return, and a
  /// search's key vocabulary is finite.
  explicit StageCostCache(std::size_t shards = 16) : cache_(shards) {}

  template <typename Compute>
  StageCost GetOrCompute(const StageCostKey& key, Compute&& compute) {
    return cache_.GetOrCompute(key, std::forward<Compute>(compute));
  }

  CacheShardStats TotalStats() const { return cache_.TotalStats(); }
  std::vector<CacheShardStats> PerShardStats() const { return cache_.PerShardStats(); }
  std::size_t num_shards() const { return cache_.num_shards(); }

  /// Key builders, shared by the estimator so tests can probe the cache.
  /// `recompute` is part of the kComp key: the memory-constrained search
  /// evaluates the same stage with and without checkpointing, and the two
  /// have different costs.
  static StageCostKey CompKey(int layer_begin, int layer_end, const topo::DeviceSet& devices,
                              int micro_batch_size, bool recompute = false);
  static StageCostKey CommKey(int boundary, const topo::DeviceSet& from,
                              const topo::DeviceSet& to, int micro_batch_size);

 private:
  ShardedCache<StageCostKey, StageCost, StageCostKeyHash> cache_;
};

/// Everything the parallel search observed about itself: how the work was
/// decomposed, what the memo cache absorbed and how long the search took.
/// Carried on PlanResult, exported into MetricsRegistry by the planner and
/// embeddable into iteration-report JSON (obs::WriteJson).
struct PlannerSearchStats {
  /// Worker threads the search ran on (1 = fully serial path).
  int threads = 0;
  /// DP levels (layer boundaries) processed.
  int levels = 0;
  /// Independent (frontier state x device placement) subproblems evaluated
  /// across all levels — the units handed to the thread pool.
  long subproblems = 0;
  long candidates_evaluated = 0;
  long candidates_pruned = 0;

  /// Memory-constrained search: the per-device cap in force (0 = none) and
  /// how many candidates the estimator rejected for exceeding it.
  Bytes memory_cap = 0;
  long memory_rejected = 0;
  /// Stages the winning plan recomputes: every stage under kAll, the fit
  /// search's pick under kAuto (0 when the plain search already fit).
  int recompute_stages = 0;
  /// Extra estimator probes the fit search's binary search spent.
  int fit_probes = 0;

  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_entries = 0;
  /// Sum of wall time spent computing cache misses (across threads, so it
  /// can exceed wall_seconds on parallel runs).
  double cache_compute_seconds = 0.0;
  /// Per-shard cache counters, in shard order; empty when the cache was
  /// disabled.
  std::vector<CacheShardStats> shards;

  /// Wall-clock duration of the search (not simulated time; excluded from
  /// any golden-tested artifact).
  double wall_seconds = 0.0;
  /// Wall time of the three per-level phases: serial subproblem
  /// enumeration, parallel candidate evaluation, serial deterministic
  /// merge. evaluate_seconds is the only parallelizable share — the
  /// Amdahl ceiling of the thread sweep is wall / (wall - evaluate).
  double enumerate_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double merge_seconds = 0.0;

  double cache_hit_rate() const {
    const std::int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total) : 0.0;
  }
};

/// Feeds the stats into the process-wide MetricsRegistry under the
/// planner.parallel.* and planner.cache.* names.
void ExportSearchStats(const PlannerSearchStats& stats);

}  // namespace dapple::planner
