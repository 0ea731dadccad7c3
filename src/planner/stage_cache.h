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
// A row is keyed by the pricer's complete input, not by device ids: a
// computation row reads of its set only the CompInputs (replica count,
// whether the replicas share a server, the slowest replica's speed), and a
// comm row only the comm::StageLink (both replica counts, whether an
// intra-server and an inter-server link join the sets). Both follow from
// per-server device counts alone (RowInputs): speeds are per server, and
// the sets of one plan are disjoint, so two sets share a link kind exactly
// when a server holds devices of both. The memo fills a row from its key
// alone through LatencyEstimator's CompPricer/CommPricer, which price every
// entry the way Estimate does, so a row cannot read anything its key does
// not hold, on any cluster (homogeneous, per-server speeds, degraded).
// Every set with the same inputs shares one row.
//
// A key is held in dense form, as a slot: the family, the micro-batch
// size's index in the search's list, and an offset that packs the kBegin
// anchor and the recompute flag with the input's dense index (RowInputs).
// Slots map one-to-one to keys. The slots of one (family, micro-batch size)
// form one page, allocated on first use; a page is a zeroed array of row
// pointers. A subproblem resolves its micro-batch size's pages once
// (StageRowMemo::At), and then a lookup that hits is one acquire load: no
// hash, no lock. A lookup that misses fills the row under the memo's one
// mutex and rechecks the slot first, so each key is filled exactly once,
// whatever the thread count, and the memo's misses equal its rows. Rows
// are never moved or erased before the memo is destroyed, so a row handed
// out stays valid and unchanged.
//
// Determinism contract: every row is a pure function of its key (plus the
// estimator's fixed model/cluster/options), so a looked-up entry is
// bit-identical to a recomputation and the search result cannot depend on
// which thread filled a row.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/cost_model.h"
#include "planner/latency.h"
#include "topo/cluster.h"

namespace dapple::planner {

/// Dense indices of the pricer inputs sets on one cluster can have, and
/// their derivation from per-server device counts (counts[s] = the set's
/// devices on server s). A CompInputs index packs (replica count, single
/// server, rank of the slowest speed among the cluster's distinct device
/// speeds); a StageLink index packs (both replica counts, intra-server,
/// inter-server). The counts path equals CompInputs::Of and
/// StageLink::Between bit for bit whenever the two sets of a link are
/// disjoint.
class RowInputs {
 public:
  explicit RowInputs(const topo::Cluster& cluster);

  /// Index ranges: [0, num_comp()) and [0, num_links()).
  std::size_t num_comp() const { return devices_ * 2 * speeds_.size(); }
  std::size_t num_links() const { return devices_ * devices_ * 4; }

  /// The CompInputs index of a non-empty set.
  std::size_t Comp(std::span<const int> counts) const;
  /// The StageLink index from non-empty set `from` to disjoint non-empty
  /// set `to`.
  std::size_t Link(std::span<const int> from, std::span<const int> to) const;
  /// The index of a link between non-empty sets of this cluster.
  std::size_t Link(const comm::StageLink& link) const;

  /// The inputs an index stands for.
  CompInputs CompAt(std::size_t index) const;
  comm::StageLink LinkAt(std::size_t index) const;

 private:
  std::size_t devices_ = 0;
  /// The cluster's distinct device speeds, ascending, and each server's
  /// rank among them.
  std::vector<double> speeds_;
  std::vector<int> server_rank_;
};

/// The row memo of one search, shared by its concurrent subproblem
/// evaluators. A row is L entries, indexed by the moving boundary; entries
/// outside the family's range are left default.
class StageRowMemo {
 public:
  /// Rows held and the wall time spent filling them (summed across
  /// threads). A lookup that found its row filled is a hit; every other
  /// lookup filled one row, so callers count their lookups and hits are
  /// lookups - rows.
  struct Stats {
    std::int64_t rows = 0;
    double fill_seconds = 0.0;
  };

  enum class Family : std::uint8_t { kBegin = 0, kEnd = 1, kComm = 2 };

  /// `estimator` must outlive the memo. `micro_batch_sizes` lists every
  /// micro-batch size a row may be priced at; rows name one by its index.
  /// Unbounded: one search owns the memo and drops it on return.
  StageRowMemo(const LatencyEstimator& estimator, std::vector<int> micro_batch_sizes);
  ~StageRowMemo();
  StageRowMemo(const StageRowMemo&) = delete;
  StageRowMemo& operator=(const StageRowMemo&) = delete;

  const RowInputs& inputs() const { return inputs_; }

  /// The rows at one micro-batch size, with its pages resolved.
  class Rows {
   public:
    /// kBegin: entry e prices computation [anchor, e) for e in (anchor, L)
    /// on a set of CompInputs index `comp`.
    std::span<const RowEntry> Begin(int anchor, bool recompute, std::size_t comp) const {
      return Get(Family::kBegin,
                 (static_cast<std::size_t>(anchor) * 2 + recompute) * num_comp_ + comp);
    }
    /// kEnd: entry b prices computation [b, L) for b in [1, L).
    std::span<const RowEntry> End(bool recompute, std::size_t comp) const {
      return Get(Family::kEnd, static_cast<std::size_t>(recompute) * num_comp_ + comp);
    }
    /// kComm: entry x prices the boundary at x for x in [1, L) across a
    /// StageLink index `link`.
    std::span<const RowEntry> Comm(std::size_t link) const { return Get(Family::kComm, link); }

   private:
    friend class StageRowMemo;
    std::span<const RowEntry> Get(Family family, std::size_t slot) const {
      const RowEntry*& cell = pages_[static_cast<std::size_t>(family)][slot];
      const RowEntry* row = std::atomic_ref<const RowEntry*>(cell).load(std::memory_order_acquire);
      if (row == nullptr) row = memo_->Fill(family, mbs_index_, cell, slot);
      return {row, layers_};
    }

    StageRowMemo* memo_ = nullptr;
    int mbs_index_ = 0;
    std::size_t num_comp_ = 0;
    std::size_t layers_ = 0;
    const RowEntry** pages_[3] = {nullptr, nullptr, nullptr};
  };
  Rows At(int mbs_index);

  Stats TotalStats() const;

 private:
  /// Slots per page of `family`.
  std::size_t PageSize(Family family) const;
  /// Fills the row of `slot` under the mutex unless `cell` got one meanwhile.
  const RowEntry* Fill(Family family, int mbs_index, const RowEntry*& cell, std::size_t slot);

  const LatencyEstimator* estimator_;
  RowInputs inputs_;
  std::vector<int> micro_batch_sizes_;
  std::size_t layers_;
  /// Page of (micro-batch index m, family f) at 3m + f; null until used.
  std::unique_ptr<std::atomic<const RowEntry**>[]> pages_;
  /// Guards page allocation, row fills, rows_ and fill_seconds_.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RowEntry[]>> rows_;
  double fill_seconds_ = 0.0;
};

/// Everything the parallel search observed about itself: how the work was
/// decomposed, what the memo cache absorbed and how long the search took.
/// Carried on PlanResult, which is where callers read it. The registry gets
/// only what benchmark/stats.cc reads: candidates_evaluated, cache_hits,
/// cache_misses and the sums of cache_compute_seconds and wall_seconds.
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
  /// Complete candidate plans the search evaluated: the data-parallel root
  /// and every split it scored. planner.estimator_calls counts the scored
  /// splits too, beside one per LatencyEstimator::Estimate call (the root,
  /// each candidate the merge rechecks, each fit probe).
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

  /// Stage-row memo traffic: row lookups that found their row filled
  /// (hits) and that filled it (misses). Each row is filled exactly once,
  /// so the misses are the rows held, and both are the same at every
  /// thread count.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Sum of wall time spent filling rows (fills are serialized on the
  /// memo's mutex, so this stays below wall_seconds).
  double cache_compute_seconds = 0.0;

  /// Wall-clock duration of the search (not simulated time; excluded from
  /// any golden-tested artifact).
  double wall_seconds = 0.0;
  /// Wall time of the three per-level phases: serial subproblem
  /// enumeration (with each expanded node's prefix walk, its checks and
  /// row inputs, and its placement-memo lookup or fill), parallel candidate
  /// evaluation,
  /// serial deterministic merge. evaluate_seconds is the only parallelizable share — the
  /// Amdahl ceiling of the thread sweep is wall / (wall - evaluate).
  double enumerate_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double merge_seconds = 0.0;

  double cache_hit_rate() const {
    const std::int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace dapple::planner
