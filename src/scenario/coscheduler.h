// Multi-job co-scheduling under a shared device budget: N concurrent
// training jobs split one cluster at server granularity, each getting a
// contiguous, disjoint server range and its own DAPPLE plan on that slice.
//
// The split search is greedy + exchange improvement: every job starts with
// one server, each remaining server goes to whichever job shrinks the
// aggregate makespan (= max over jobs of iterations x simulated iteration
// time) the most, then single-server moves between job pairs run to a
// fixed point. Candidate evaluations — plan on the slice, build, simulate —
// fan out over a ThreadPool and memoize in a map keyed by
// planner::FingerprintPlanRequest, so a search that revisits (model, slice
// width, batch) pays the planner once. Deterministic: identical inputs
// produce byte-identical reports at every worker count (cache traffic is
// counted per deduped evaluation round, not per racing thread).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/profile.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "topo/cluster.h"

namespace dapple::scenario {

/// One training job competing for the budget.
struct JobSpec {
  std::string name;
  model::ModelProfile model;
  long global_batch_size = 64;
  /// Iterations the job still has to run; fixes the job's makespan scale.
  int iterations = 100;
};

struct CoScheduleOptions {
  /// Worker threads for candidate evaluation (ThreadPool semantics: 1 =
  /// inline serial, 0 = hardware concurrency, n = dedicated pool).
  int sim_threads = 1;
  planner::PlannerOptions planner;
  runtime::BuildOptions build;
  /// Called once per finally-assigned job pipeline with the slice it was
  /// built for. Tests hang the ScheduleValidator here; scenario itself must
  /// not depend on check.
  std::function<void(const runtime::BuiltPipeline&, const planner::ParallelPlan&,
                     const topo::Cluster&)>
      pipeline_observer;
};

struct JobAssignment {
  std::string name;
  /// Contiguous server range [server_begin, server_begin + servers) of the
  /// budget cluster — disjoint across jobs by construction.
  int server_begin = 0;
  int servers = 0;
  planner::ParallelPlan plan;
  TimeSec iteration_time = 0.0;
  /// iterations x iteration_time on the assigned slice.
  TimeSec makespan = 0.0;
};

struct CoScheduleReport {
  std::vector<JobAssignment> jobs;
  /// max over jobs — the time until the whole batch of jobs drains.
  TimeSec aggregate_makespan = 0.0;
  /// Aggregate of the naive even split (floor(S/N) servers each, remainder
  /// round-robin) — the baseline the search must beat.
  TimeSec naive_even_makespan = 0.0;
  /// Assigned busy device-time / (budget devices x aggregate makespan).
  double utilization = 0.0;
  /// Servers moved between jobs during exchange improvement; each move
  /// preempts the devices it takes from the losing job.
  int preemptions = 0;
  int greedy_steps = 0;
  int exchange_moves = 0;
  /// Plan-cache traffic across the whole search (deterministic: counted per
  /// deduped evaluation round).
  long cache_hits = 0;
  long cache_misses = 0;
};

/// Plans N jobs under a shared budget. Throws dapple::Error when the budget
/// has fewer servers than there are jobs, or when no feasible split exists.
class CoScheduler {
 public:
  CoScheduler(topo::Cluster budget, CoScheduleOptions options = {});

  /// Runs the greedy + exchange split search. The report carries every
  /// count.
  CoScheduleReport Schedule(const std::vector<JobSpec>& jobs);

 private:
  struct Cell;  // one evaluated (job, width) point
  class Evaluator;

  topo::Cluster budget_;
  CoScheduleOptions options_;
};

/// Convenience wrapper: construct, schedule, return.
CoScheduleReport CoSchedule(const topo::Cluster& budget, const std::vector<JobSpec>& jobs,
                            const CoScheduleOptions& options = {});

}  // namespace dapple::scenario
