// Analytic candidate ranking with a provable top-K simulation pre-filter.
//
// RankCandidates scores every (plan, global batch) candidate with the
// analytic LatencyEstimator — microseconds per candidate — and hands the
// scores to sim::PrefilterBatch, which simulates only the candidates whose
// score lands within the bracket-derived band of the analytic minimum. The
// caller supplies the simulate callback (building task graphs needs the
// runtime layer, which sits above the planner), so this header stays a
// pure planner/sim composition.
//
// The cut derives from the two calibrated analytic/sim brackets
// (sim::kAnalyticOverSim, sim::kSimOverAnalytic in sim/prefilter.h): on
// DAPPLE split-mode plans without a warmup override,
// analytic <= kAnalyticOverSim x sim and sim <= kSimOverAnalytic x analytic.
// The adaptive cut simulates only candidates scoring within
// kAnalyticOverSim x (best simulated makespan); its keep-set never exceeds
// the static worst-case band of kAnalyticOverSim x kSimOverAnalytic = 2.6x
// over the analytic argmin, and the true sim-best provably survives either
// cut. Candidates outside the calibrated family void the guarantee; widen
// RankingOptions::analytic_over_sim or disable the prefilter there.
#pragma once

#include <functional>
#include <vector>

#include "planner/latency.h"
#include "planner/plan.h"
#include "sim/prefilter.h"

namespace dapple::planner {

/// One ranking candidate: a plan evaluated at a global batch size.
struct RankingCandidate {
  ParallelPlan plan;
  long global_batch_size = 0;
};

struct RankingOptions {
  /// False simulates every feasible candidate (the --prefilter=off oracle).
  bool prefilter = true;
  /// Bracket factor for the adaptive cut (see sim::PrefilterOptions).
  double analytic_over_sim = sim::kAnalyticOverSim;
  /// Phase-1 probe simulations anchoring the cut.
  int probe = 8;
  /// Worker threads for both the scoring pass and the simulations.
  int threads = 1;
};

struct RankingResult {
  /// Analytic latency per candidate; +infinity when the estimator declared
  /// the candidate infeasible (such candidates are never simulated and
  /// never win).
  std::vector<double> scores;
  /// Selection and simulated values (indices into the candidate vector).
  sim::PrefilterResult sim;
  /// Winning candidate index (== sim.best); -1 when nothing was rankable.
  int best = -1;
};

/// Scores all candidates with `estimator`, then simulates the surviving
/// band through `simulate` (candidate index -> simulated makespan).
/// Deterministic at every thread count.
RankingResult RankCandidates(const LatencyEstimator& estimator,
                             const std::vector<RankingCandidate>& candidates,
                             const std::function<double(int)>& simulate,
                             const RankingOptions& options = {});

}  // namespace dapple::planner
