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
// The memo maps a row's key to the whole row, filled on first use through
// LatencyEstimator's CompPricer/CommPricer, which price every entry the way
// Estimate does. The key is the pricer's complete input, not the device
// ids: a computation row reads of its set only the CompInputs (replica
// count, whether the replicas share a server, the slowest replica's
// speed), and a comm row only the comm::StageLink (both replica counts,
// whether an intra-server and an inter-server link join the sets). The
// pricers are constructed from these inputs alone, and the memo fills a
// row from its key alone, so a row cannot read anything its key does not
// hold, on any cluster (homogeneous, per-server speeds, degraded).
// Every set with the same inputs shares one row. Beside the inputs a key
// holds the family, the kBegin anchor, the micro-batch size and the
// recompute flag; it is a fixed-size value, hashed field by field.
//
// Rows are stored by value in a fixed number of mutex-guarded hash-map
// shards and handed out as references: a search never erases a row and a
// hash map never moves its nodes, so a reference stays valid, and
// unchanged, until the memo is destroyed. A subproblem looks its rows up
// once and then reads each split's entries by index. A stage's peak-memory
// piece is not memoized: it is a few prefix-sum reads.
//
// Determinism contract: every row is a pure function of its key (plus the
// estimator's fixed model/cluster/options), so a looked-up entry is
// bit-identical to a recomputation and the search result cannot depend on
// which thread filled a row first. A row is filled outside its shard's
// lock; when two threads fill the same fresh key, the first insert wins and
// the duplicate is dropped.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "comm/cost_model.h"
#include "planner/latency.h"
#include "topo/device_set.h"

namespace dapple::planner {

/// Costs over one moving layer boundary, indexed by that boundary (entries
/// outside the family's range are left default).
using StageRow = std::vector<StageCost>;

/// Identity of one row: its family and everything its pricer reads. For
/// kComm, `anchor`, `recompute` and `comp` stay default; otherwise `link`
/// does. `anchor` is the kBegin stage's first layer (0 otherwise).
struct StageRowKey {
  enum class Family : std::uint8_t { kBegin = 0, kEnd = 1, kComm = 2 };

  Family family = Family::kBegin;
  bool recompute = false;
  std::int32_t anchor = 0;
  std::int32_t micro_batch_size = 0;
  CompInputs comp;
  comm::StageLink link;

  bool operator==(const StageRowKey& other) const = default;
};

struct StageRowKeyHash {
  std::size_t operator()(const StageRowKey& key) const {
    std::size_t seed = static_cast<std::size_t>(key.family);
    Combine(seed, static_cast<std::size_t>(key.recompute));
    Combine(seed, static_cast<std::size_t>(key.anchor));
    Combine(seed, static_cast<std::size_t>(key.micro_batch_size));
    Combine(seed, static_cast<std::size_t>(key.comp.group.size));
    Combine(seed, static_cast<std::size_t>(key.comp.group.single_server));
    Combine(seed, std::bit_cast<std::uint64_t>(key.comp.slowest_speed));
    Combine(seed, static_cast<std::size_t>(key.link.from_size));
    Combine(seed, static_cast<std::size_t>(key.link.to_size));
    Combine(seed, static_cast<std::size_t>(key.link.intra_server));
    Combine(seed, static_cast<std::size_t>(key.link.inter_server));
    return seed;
  }

  /// Mixes a value into a running hash seed (boost::hash_combine recipe).
  static void Combine(std::size_t& seed, std::size_t value) {
    seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  }
};

/// The row memo of one search, shared by its concurrent subproblem
/// evaluators (sharded so they rarely contend on one lock).
class StageRowMemo {
 public:
  /// Row-lookup traffic: lookups that hit or filled a row, the rows held,
  /// and the wall time spent filling rows (summed across threads).
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    double fill_seconds = 0.0;
  };

  /// `estimator` must outlive the memo. Unbounded: one search owns the
  /// memo and drops it on return.
  explicit StageRowMemo(const LatencyEstimator& estimator) : estimator_(&estimator) {}

  /// kBegin: entry e prices computation [anchor, e) for e in (anchor, L).
  const StageRow& Begin(int anchor, const topo::DeviceSet& devices, int micro_batch_size,
                        bool recompute);
  /// kEnd: entry b prices computation [b, L) for b in [1, L).
  const StageRow& End(const topo::DeviceSet& devices, int micro_batch_size, bool recompute);
  /// kComm: entry x prices the boundary at x for x in [1, L).
  const StageRow& Comm(const topo::DeviceSet& from, const topo::DeviceSet& to,
                       int micro_batch_size);

  Stats TotalStats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<StageRowKey, StageRow, StageRowKeyHash> rows;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    double fill_seconds = 0.0;
  };

  /// The row of `key`, filled on first use.
  const StageRow& Row(const StageRowKey& key);
  /// A fresh row priced from `key` alone, so it cannot read an input the
  /// key does not hold.
  StageRow Fill(const StageRowKey& key) const;

  const LatencyEstimator* estimator_;
  std::array<Shard, kShards> shards_;
};

/// What LatencyEstimator::ScoreSplits reads for every split of one
/// subproblem, looked up in the memo once. `plan` is the subproblem's
/// candidate at any split: its stages before the last two are the fixed
/// prefix, the second-to-last is the carved stage [j, jp) and the last the
/// default suffix [jp, L).
class SplitEntries {
 public:
  SplitEntries(StageRowMemo& memo, const ParallelPlan& plan, int micro_batch_size);

  /// The 2S-4 entries before the carved stage (comp0, comm01, ..., the comm
  /// into the carved stage), the same at every split.
  std::span<const StageCost> prefix() const { return prefix_; }
  /// Rows indexed by jp: the carved stage, the boundary after it and the
  /// suffix.
  const StageRow& carved() const { return *carved_; }
  const StageRow& boundary() const { return *boundary_; }
  const StageRow& suffix() const { return *suffix_; }

 private:
  std::vector<StageCost> prefix_;
  const StageRow* carved_ = nullptr;
  const StageRow* boundary_ = nullptr;
  const StageRow* suffix_ = nullptr;
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
  /// Nodes in the largest DP level (frontier) the search expanded.
  long frontier_peak = 0;
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
  /// the rows held at the end.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_entries = 0;
  /// Sum of wall time spent filling rows (across threads, so it can exceed
  /// wall_seconds on parallel runs).
  double cache_compute_seconds = 0.0;

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
