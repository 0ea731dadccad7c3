// Shared helpers for the per-table/per-figure benchmark binaries. Each
// binary regenerates one table or figure from the paper's evaluation
// (SVI); these helpers wrap the plan-then-simulate loop and the paper-vs-
// measured presentation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dapple/dapple.h"

namespace dapple::bench {

/// One evaluated configuration: the planner's choice plus the simulated
/// iteration and both DP baselines.
struct EvalRow {
  std::string model;
  std::string config;
  long global_batch_size = 0;
  planner::PlanResult planned;
  runtime::IterationReport hybrid;
  obs::IterationReport report;  // full observability report of the hybrid run
  planner::DataParallelEstimate dp_no_overlap;
  planner::DataParallelEstimate dp_overlap;
};

/// Plans and simulates `model` on `cluster`, with DP baselines.
EvalRow Evaluate(const model::ModelProfile& model, const topo::Cluster& cluster,
                 long global_batch_size);

/// One configuration for EvaluateBatch; model and cluster are borrowed and
/// must outlive the call.
struct EvalSpec {
  const model::ModelProfile* model = nullptr;
  const topo::Cluster* cluster = nullptr;
  long global_batch_size = 0;
};

/// Evaluates every spec across a sim::BatchRunner (`sim_threads`: 1 =
/// inline serial, 0 = hardware concurrency). Returned rows match `specs`
/// by index and are recorded into the bench JSON in that order regardless
/// of scheduling, so the archived trajectory stays byte-stable at every
/// thread count.
std::vector<EvalRow> EvaluateBatch(const std::vector<EvalSpec>& specs, int sim_threads = 1);

/// The cluster the paper uses for a config letter with 16 devices total
/// ('A' = 2x8, 'B'/'C' = 16x1).
topo::Cluster SixteenDeviceConfig(char config);

/// Prints the standard header naming the experiment and its paper anchor.
void PrintHeader(const std::string& title, const std::string& paper_anchor);

/// Prints a paper-vs-measured comparison line.
void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured);

/// Wall seconds of `reps` identical passes of `pass`, measured after one
/// untimed warmup pass. The warmup populates the engine's arena and
/// flatten scratch and allocator caches, so per-row engine comparisons
/// time steady-state throughput instead of charging first-pass allocation
/// to whichever engine happens to run first.
double TimeWarmedPasses(int reps, const std::function<void()>& pass);

/// Minimum of `trials` TimeWarmedPasses measurements. Engine-vs-engine
/// ratio rows use the best-of so a scheduler hiccup in one trial cannot
/// fail a floor assertion; the minimum is the standard low-noise estimator
/// for deterministic CPU-bound work.
double TimeWarmedPassesBestOf(int trials, int reps, const std::function<void()>& pass);

// Every PrintHeader / PrintComparison / Evaluate call is also recorded; when
// DAPPLE_BENCH_JSON_DIR is set, the process writes the accumulated record to
// $DAPPLE_BENCH_JSON_DIR/BENCH_<binary>.json at exit — the machine-readable
// counterpart of the stdout tables, with the full iteration report embedded
// per evaluated row.

}  // namespace dapple::bench
