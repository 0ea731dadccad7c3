// The DAPPLE planner (paper §IV): dynamic programming over (partition
// point, device allocation) states. A state TPL(j, state) means "the first
// j layers are planned; the remaining layers form one stage on all free
// devices". Transitions carve one more stage [j, j') placed by one of the
// three topology-aware policies; states are memoized on (j, canonical
// allocation key), where the canonical key exploits server symmetry
// (identical machines are interchangeable). Every visited state is also a
// complete candidate plan (prefix + default suffix), so pure data
// parallelism (j = 0) and straight pipelines fall out of the same search.
//
// The frontier of level j is a vector of nodes, each holding its last
// stage, its parent's index and its TPL, and no device state. Each distinct
// packed canonical key (fixed-width per-server counts) gets one dense id
// per search, and a level finds its node for a key id by an array read.
// Every policy hands a server's lowest free device out first, so a node's
// device state is its per-server used counts. What its expansion reads
// that depends only on them (free devices, hand-out orders, deduplicated
// placements and, per placement, its carved, boundary and suffix row
// inputs of planner/stage_cache.h and its child's interned key) comes from
// a per-search placement memo keyed by them, cleared past a byte budget.
//
// One search-state type (DpSearch, in dp_planner.cc) runs a search. Its
// members: the node walk, which walks a node's prefix from its parents
// without allocating, checks it (contiguous non-empty stages, no device in
// two stages, free devices left, each server's lowest devices used) and
// reads its memo entry; the level's expanding-node filter, whose budget
// pass walks every expanding node before the level evaluates anything;
// phase 1, which walks a batch of nodes into subproblems (the last level,
// having no split point left, runs only this); phase 2, the only parallel
// one, which scores each subproblem's splits; phase 3, which merges them
// in enumeration order into the frontier, the incumbent and the top-k
// alternatives; and the finish (stats, metrics, the data-parallel pin,
// NoFeasiblePlan).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "planner/latency.h"
#include "planner/plan.h"
#include "planner/stage_cache.h"

namespace dapple::planner {

/// How the planner may use activation recomputation (§II-A) to fit a
/// memory cap.
enum class RecomputePolicy {
  /// Never recompute (a cap can still reject placements).
  kOff,
  /// Recompute on every stage of every candidate.
  kAll,
  /// Search without recomputation first; when nothing fits the cap, rerun
  /// with recomputation everywhere and then binary-search the cheapest
  /// per-stage subset (lowest latency penalty first) that still fits.
  kAuto,
};

const char* ToString(RecomputePolicy policy);
/// Parses "off" | "all" | "on" | "auto" (case-insensitive); throws on
/// anything else.
RecomputePolicy ParseRecomputePolicy(const std::string& text);

struct PlannerOptions {
  long global_batch_size = 0;
  /// Cap on computation stages (0 = number of devices). Smaller caps speed
  /// up the search; the paper's insight is that few stages win anyway.
  int max_stages = 0;
  /// Prune transitions whose prefix-TPL already exceeds the incumbent by
  /// this factor. 0 disables pruning.
  double prune_slack = 2.0;
  /// Number of best distinct candidates to keep for downstream re-ranking
  /// (the Session verifies the analytic top-k against the discrete-event
  /// simulator, whose schedule is exact where formula 1 approximates).
  int keep_alternatives = 8;
  /// Ablation hook: restrict the device-placement search to a subset of
  /// the three policies. Empty = all (the paper's full search space).
  std::vector<topo::PlacementPolicy> policies;
  /// Recomputation knob for fitting under latency.memory_cap (see
  /// RecomputePolicy). The result carries its choice as per-stage
  /// StagePlan::recompute flags.
  RecomputePolicy recompute = RecomputePolicy::kOff;
  /// Estimator settings, including the schedule family the plan will run
  /// under and the per-device memory cap (runtime::BuildOptionsFor hands
  /// both to the simulator).
  LatencyOptions latency;
  /// Worker threads for the subproblem-parallel search: 0 = the shared
  /// pool (sized to hardware concurrency), 1 = fully serial in the calling
  /// thread, n > 1 = a dedicated pool of n workers for this search. Each
  /// search builds its own stage-row memo (planner/stage_cache.h) and drops
  /// it on return. The winning plan is byte-identical at every setting (the
  /// merge is sequential in enumeration order; parallel work is
  /// slot-indexed).
  int num_threads = 0;
  /// Search budget: the search throws SearchTooLarge once its serial
  /// enumeration has counted more subproblems than this (0 = unbounded).
  /// The count never depends on wall time or threads, so a search fits or
  /// not identically at every thread count. Not part of the plan
  /// fingerprint: a search that fits returns the same plan at any budget.
  long max_subproblems = 0;
};

/// A search that passed PlannerOptions::max_subproblems, with the counts it
/// reached when it stopped.
class SearchTooLarge : public Error {
 public:
  SearchTooLarge(long subproblems, long budget, int levels, long candidates_evaluated,
                 long frontier_peak);

  /// Subproblems enumerated when the budget was passed (budget + 1).
  long subproblems() const { return subproblems_; }
  long budget() const { return budget_; }
  /// DP levels the search had reached, the one that passed included.
  int levels() const { return levels_; }
  long candidates_evaluated() const { return candidates_evaluated_; }
  /// Largest level's node count reached.
  long frontier_peak() const { return frontier_peak_; }

 private:
  long subproblems_;
  long budget_;
  int levels_;
  long candidates_evaluated_;
  long frontier_peak_;
};

/// A search that finished without a feasible plan. Callers that retry or
/// refuse on infeasibility catch this, not dapple::Error, so a failed
/// invariant inside the search is never mistaken for a refusal.
class NoFeasiblePlan : public Error {
 public:
  using Error::Error;
};

struct PlanResult {
  ParallelPlan plan;
  PlanEstimate estimate;
  /// Best distinct candidates by analytic latency, ascending (includes the
  /// winner at index 0).
  std::vector<std::pair<ParallelPlan, PlanEstimate>> alternatives;
  /// How the search ran: decomposition, cache traffic, wall time.
  PlannerSearchStats stats;
};

class DapplePlanner {
 public:
  DapplePlanner(const model::ModelProfile& model, const topo::Cluster& cluster,
                PlannerOptions options);

  /// Runs the search and returns the best feasible plan. Under
  /// RecomputePolicy::kAll every stage of the plan and of its alternatives
  /// is flagged for recomputation. Under kAuto a memory-infeasible search
  /// is retried with recomputation everywhere, then trimmed to the cheapest
  /// per-stage subset that still fits. Throws NoFeasiblePlan when no
  /// feasible plan exists even then, and SearchTooLarge (never retried)
  /// when a search passes max_subproblems. The result's stats carry the
  /// recompute stages and fit probes.
  PlanResult Plan() const;

  /// Evaluates a fully specified plan, its own recompute flags included,
  /// with this planner's latency options (used to compare externally
  /// produced strategies, e.g. PipeDream's).
  PlanEstimate Evaluate(const ParallelPlan& plan) const;

 private:
  /// One full DP search; `recompute_all` flags every stage it creates.
  PlanResult Search(bool recompute_all) const;

  /// Turns an all-recompute plan into the cheapest per-stage recompute
  /// subset that still fits: stages sorted by latency penalty
  /// (runtime::kRecomputeOverhead x F_s, ties by index), smallest feasible
  /// prefix found by binary search. Returns the number of estimator probes
  /// spent.
  int MinimizeRecompute(const LatencyEstimator& estimator, ParallelPlan& plan,
                        PlanEstimate& estimate) const;

  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  PlannerOptions options_;
};

}  // namespace dapple::planner
