// Memoization layer of the parallel planner search. The DP enumerates
// millions of candidate plans, but inside one subproblem (a frontier node
// and one placement of the carved stage) only the split point jp moves, and
// the micro-batch size and recompute flags are fixed. Every stage-cost
// entry of its candidates is then one element of a *row*: a one-dimensional
// family of costs over a moving layer boundary.
//
//   kBegin  computation [anchor, e) on a device set, indexed by e (the
//           carved stage, and each prefix stage)
//   kEnd    computation [b, L) on a device set, indexed by b (the default
//           suffix)
//   kComm   the boundary at x from one device set to another, indexed by x
//
// The memo maps a row's key (family, anchor, exact device ids, micro-batch
// size, recompute) to the whole row, filled on first use through
// LatencyEstimator's CompPricer/CommPricer, which bind the device sets once
// per row and price every entry the way Estimate does. A subproblem looks
// its rows up once and then reads each split's entries by index. A stage's
// peak-memory piece is not memoized: it is a few prefix-sum reads.
//
// Determinism contract: every row is a pure function of its key (plus the
// estimator's fixed model/cluster/options), so a looked-up entry is
// bit-identical to a recomputation and the search result cannot depend on
// which thread filled a row first. Keys hold device ids, so any cluster
// size is memoized.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/sharded_cache.h"
#include "planner/latency.h"
#include "topo/device_set.h"

namespace dapple::planner {

/// Costs over one moving layer boundary, indexed by that boundary (entries
/// outside the family's range are left default).
using StageRow = std::vector<StageCost>;

/// Identity of one row. For kComm, `devices` holds the `from` ids, -1 and
/// the `to` ids; `anchor` is the kBegin stage's first layer (0 otherwise).
struct StageRowKey {
  enum class Family : std::uint8_t { kBegin = 0, kEnd = 1, kComm = 2 };

  Family family = Family::kBegin;
  bool recompute = false;
  std::int32_t anchor = 0;
  std::int32_t micro_batch_size = 0;
  std::vector<topo::DeviceId> devices;

  bool operator==(const StageRowKey& other) const = default;
};

struct StageRowKeyHash {
  std::size_t operator()(const StageRowKey& key) const {
    std::size_t seed = static_cast<std::size_t>(key.family);
    HashCombine(seed, static_cast<std::size_t>(key.recompute));
    HashCombine(seed, static_cast<std::size_t>(key.anchor));
    HashCombine(seed, static_cast<std::size_t>(key.micro_batch_size));
    for (topo::DeviceId d : key.devices) HashCombine(seed, static_cast<std::size_t>(d));
    return seed;
  }
};

/// The row memo of one search, shared by its concurrent subproblem
/// evaluators (sharded so they rarely contend on one lock). Hits and misses
/// count row lookups; compute time is row-fill time.
class StageRowMemo {
 public:
  /// `estimator` must outlive the memo. Unbounded: one search owns the
  /// memo and drops it on return.
  explicit StageRowMemo(const LatencyEstimator& estimator, std::size_t shards = 16)
      : estimator_(&estimator), rows_(shards) {}

  /// kBegin: entry e prices computation [anchor, e) for e in (anchor, L).
  std::shared_ptr<const StageRow> Begin(int anchor, const topo::DeviceSet& devices,
                                        int micro_batch_size, bool recompute);
  /// kEnd: entry b prices computation [b, L) for b in [1, L).
  std::shared_ptr<const StageRow> End(const topo::DeviceSet& devices, int micro_batch_size,
                                      bool recompute);
  /// kComm: entry x prices the boundary at x for x in [1, L).
  std::shared_ptr<const StageRow> Comm(const topo::DeviceSet& from, const topo::DeviceSet& to,
                                       int micro_batch_size);

  CacheShardStats TotalStats() const { return rows_.TotalStats(); }
  std::vector<CacheShardStats> PerShardStats() const { return rows_.PerShardStats(); }

 private:
  template <typename Fill>
  std::shared_ptr<const StageRow> Row(const StageRowKey& key, Fill&& fill);

  const LatencyEstimator* estimator_;
  ShardedCache<StageRowKey, std::shared_ptr<const StageRow>, StageRowKeyHash> rows_;
};

/// The expanded stage list (comp0, comm01, comp1, ...) of every split of
/// one subproblem, read from the memo. `plan` is the subproblem's candidate
/// at any split: its stages before the last two are the fixed prefix, the
/// second-to-last is the carved stage [j, jp) and the last the default
/// suffix [jp, L). The prefix entries are copied once; each split then
/// takes three entries by index from the carved, boundary and suffix rows.
class SplitEntries {
 public:
  SplitEntries(StageRowMemo& memo, const ParallelPlan& plan, int micro_batch_size);

  /// All 2S-1 entries with the carved stage ending at `jp`; valid until the
  /// next call. Exactly what LatencyEstimator::Estimate prices for that
  /// candidate.
  std::span<const StageCost> At(int jp);

 private:
  std::vector<StageCost> entries_;
  int first_split_ = 0;  // the carved stage's first layer + 1
  std::shared_ptr<const StageRow> carved_;
  std::shared_ptr<const StageRow> boundary_;
  std::shared_ptr<const StageRow> suffix_;
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

  /// Stage-row memo traffic: row lookups that hit or filled a row, and
  /// the rows held at the end. All zero when use_stage_cache is off (each
  /// subproblem then fills rows of its own).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_entries = 0;
  /// Sum of wall time spent filling rows (across threads, so it can exceed
  /// wall_seconds on parallel runs).
  double cache_compute_seconds = 0.0;
  /// Per-shard memo counters, in shard order; empty when the memo was not
  /// shared.
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
