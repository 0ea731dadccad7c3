// Analytic top-K pre-filter for candidate-ranking sweeps.
//
// Ranking P candidates by simulated makespan costs P graph builds + P
// simulations. When every candidate also has a cheap analytic score that
// brackets its simulated value (kAnalyticOverSim and kSimOverAnalytic
// below), most of that budget is provably wasted. PrefilterBatch runs a
// two-phase adaptive cut:
//
//   1. probe: simulate the `probe` best-scored candidates; call the best
//      simulated makespan so far S.
//   2. cut: any candidate with score > 1.30 x S cannot win — its simulated
//      makespan is at least score / 1.30 > S — so only the remaining
//      candidates with score <= 1.30 x S are simulated.
//
// The kept set is always a subset of the static worst-case band
// score <= (1.30 x 2.0) x min(score) (the probe includes the analytic
// argmin m, and S <= sim_m <= 2.0 x score_m), so rank-1 recall is exactly
// 100% whenever the brackets hold, while the adaptive cut — anchored to a
// real simulated value instead of the worst-case bracket product — skips
// the long tail of clearly-worse candidates far more aggressively.
//
// This header is score-agnostic: the Session's re-rank, the fuzz ranking
// sweep and bench_sim_engine supply analytic LatencyEstimator scores;
// tests/prefilter_test.cc and the fuzz ranking sweep fence the recall
// property end to end.
#pragma once

#include <functional>
#include <limits>
#include <vector>

namespace dapple::sim {

/// The calibrated analytic/sim brackets of multi-stage DAPPLE split-mode
/// plans without a warmup override, the family the analytic estimator
/// models: analytic <= kAnalyticOverSim x sim and
/// sim <= kSimOverAnalytic x analytic. The fuzz harness (check/fuzz.h)
/// asserts both on every case of that family. The estimator matches the
/// simulator's duplex channels (steady comm rounds gated by max(F, B), not
/// F + B), so the remaining analytic pessimism comes from formula-1
/// conservatism on overlap and pivot interactions; the sim excess comes
/// from bubbles, transfers serialized on channels and the weight update.
/// Worst observed on a 100k-seed sweep: analytic/sim 1.049 (seed 3410),
/// sim/analytic 1.616.
inline constexpr double kAnalyticOverSim = 1.30;
inline constexpr double kSimOverAnalytic = 2.0;

struct PrefilterOptions {
  /// Phase-1 simulations: the `probe` best-scored candidates anchor the
  /// cut. 1 suffices for the guarantee; a few more tighten the anchor and
  /// give the pool parallel work.
  int probe = 8;
  /// False disables selection: every finite-scored candidate is simulated
  /// (the full-simulation baseline, and the oracle leg of recall tests).
  bool enabled = true;
  /// Worker threads for the simulations (ThreadPool semantics: 1 = inline,
  /// 0 = hardware concurrency).
  int threads = 1;
};

struct PrefilterResult {
  /// Candidate indices that were simulated, ascending.
  std::vector<int> simulated;
  /// Simulated value of simulated[i] (same order).
  std::vector<double> values;
  /// Candidate index with the lowest simulated value (lowest index wins
  /// ties, matching a serial argmin over all candidates); -1 when nothing
  /// was simulated.
  int best = -1;
  double best_value = std::numeric_limits<double>::infinity();
  int num_candidates = 0;
  /// Candidates never simulated (cut-rejected or non-finite score).
  int num_skipped = 0;
  /// The phase-2 score cutoff actually applied (infinity when the
  /// prefilter was disabled or every probe simulation diverged).
  double cutoff = std::numeric_limits<double>::infinity();
};

/// The static worst-case band (exposed for unit tests and as the
/// documented upper bound on the adaptive keep-set): indices of all finite
/// scores within band x min(score), topped up to min_keep by ascending
/// score (ties by index), returned ascending. Non-finite scores are never
/// selected; an all-non-finite input selects nothing.
std::vector<int> SelectWithinBand(const std::vector<double>& scores, double band,
                                  int min_keep);

/// Runs the two-phase adaptive cut, fanning simulate(i) calls across a
/// dedicated ThreadPool. A candidate is skipped when its score exceeds
/// kAnalyticOverSim x (best simulated makespan). Selection and best are identical at every thread count.
/// Updates MetricsRegistry counters prefilter.sweeps, prefilter.candidates,
/// prefilter.simulated and prefilter.skipped.
PrefilterResult PrefilterBatch(const std::vector<double>& scores,
                               const std::function<double(int)>& simulate,
                               const PrefilterOptions& options = {});

}  // namespace dapple::sim
