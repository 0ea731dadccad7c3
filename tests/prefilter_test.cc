// The analytic top-K pre-filter, fenced two ways:
//
//   1. arithmetic — the selection math (static band, min_keep top-up,
//      non-finite exclusion, the adaptive two-phase cut and its subset
//      relation to the static band) on hand-built score vectors, including
//      a near-miss vector at the exact worst calibrated analytic/sim
//      ratio;
//   2. recall — the end-to-end property on seeded fuzz corpora: ranking
//      with the pre-filter on must land on a candidate whose simulated
//      makespan bit-exactly equals the best over the full simulation
//      sweep, at every BatchRunner thread count, including the pinned
//      near-miss seeds 3410 and 16186 (the two worst analytic/sim cases
//      of the 100k-seed calibration sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "check/fuzz.h"
#include "obs/metrics.h"
#include "sim/prefilter.h"

namespace dapple {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SelectWithinBand, KeepsEverythingWithinBandOfTheMinimum) {
  const std::vector<double> scores = {2.0, 1.0, 2.59, 2.61, 10.0};
  // Band 2.6 x min 1.0: keeps 1.0, 2.0, 2.59; drops 2.61 and 10.0.
  EXPECT_EQ(sim::SelectWithinBand(scores, 2.6, 1), (std::vector<int>{0, 1, 2}));
}

TEST(SelectWithinBand, MinKeepTopsUpWithTheNextBestScores) {
  const std::vector<double> scores = {10.0, 1.0, 50.0, 40.0};
  // Band keeps only index 1; min_keep 3 pulls in the two next-best scores
  // (10.0 then 40.0) regardless of the band.
  EXPECT_EQ(sim::SelectWithinBand(scores, 1.5, 3), (std::vector<int>{0, 1, 3}));
}

TEST(SelectWithinBand, NonFiniteScoresAreNeverSelected) {
  EXPECT_EQ(sim::SelectWithinBand({kInf, 1.0, kInf}, 2.6, 3), (std::vector<int>{1}));
  EXPECT_TRUE(sim::SelectWithinBand({kInf, kInf}, 2.6, 3).empty());
  EXPECT_TRUE(sim::SelectWithinBand({}, 2.6, 3).empty());
}

TEST(PrefilterBatch, AdaptiveCutSkipsEverythingAboveTheBracketBound) {
  // Simulated value = 1.4x the score for every candidate: inside both
  // brackets (analytic/sim = 0.71 <= 1.3, sim/analytic = 1.4 <= 2.0).
  const std::vector<double> scores = {1.0, 1.1, 1.2, 5.0, 10.0};
  sim::PrefilterOptions po;
  po.probe = 1;
  const auto result = sim::PrefilterBatch(
      scores, [&](int i) { return scores[static_cast<std::size_t>(i)] * 1.4; }, po);

  // Probe simulates index 0 (best score): best_sim = 1.4, cutoff = 1.82.
  EXPECT_DOUBLE_EQ(result.cutoff, 1.3 * 1.4);
  EXPECT_EQ(result.simulated, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(result.num_skipped, 2);
  EXPECT_EQ(result.best, 0);
  EXPECT_DOUBLE_EQ(result.best_value, 1.4);
}

TEST(PrefilterBatch, KeepSetIsASubsetOfTheStaticWorstCaseBand) {
  // Adversarial spread: simulated values wander anywhere inside the
  // brackets (score/1.3 .. 2 x score). The adaptive keep-set must stay
  // inside the static band score <= 2.6 x min(score) for any such case.
  const std::vector<double> scores = {1.0, 1.3, 2.0, 2.55, 2.65, 3.0, 8.0};
  const std::vector<double> sims = {2.0, 1.001, 1.6, 2.2, 2.3, 5.9, 6.2};
  sim::PrefilterOptions po;
  po.probe = 2;
  const auto result = sim::PrefilterBatch(
      scores, [&](int i) { return sims[static_cast<std::size_t>(i)]; }, po);

  const std::vector<int> band =
      sim::SelectWithinBand(scores, sim::kAnalyticOverSim * sim::kSimOverAnalytic, po.probe);
  for (const int i : result.simulated) {
    EXPECT_NE(std::find(band.begin(), band.end(), i), band.end())
        << "adaptive cut simulated index " << i << " outside the static band";
  }
  // And the true best (index 1, sim 1.001) must have been simulated.
  EXPECT_EQ(result.best, 1);
}

TEST(PrefilterBatch, NearMissRatioAtTheCalibratedWorstCaseSurvives) {
  // Seed 3410's 1.0489 is the worst analytic-over-sim ratio ever observed
  // on the calibrated family. Recreate that geometry: the true best
  // candidate overshoots analytically by exactly that ratio while a decoy
  // undershoots, putting the best's score above the decoy's. The 1.30 cut
  // must still keep it; a cut tightened below ~1.05 would drop it.
  const double worst_ratio = 1.0489;
  const std::vector<double> sims = {1.00, 0.98};      // index 1 is the true best
  const std::vector<double> scores = {1.00 * 0.95,    // decoy undershoots
                                      0.98 * worst_ratio};
  ASSERT_GT(scores[1], scores[0]);
  sim::PrefilterOptions po;
  po.probe = 1;
  const auto result = sim::PrefilterBatch(
      scores, [&](int i) { return sims[static_cast<std::size_t>(i)]; }, po);
  EXPECT_EQ(result.best, 1);
  EXPECT_DOUBLE_EQ(result.best_value, 0.98);
}

TEST(PrefilterBatch, DisabledSimulatesEveryFiniteCandidate) {
  const std::vector<double> scores = {9.0, 1.0, kInf, 30.0};
  sim::PrefilterOptions po;
  po.enabled = false;
  const auto result = sim::PrefilterBatch(
      scores, [&](int i) { return scores[static_cast<std::size_t>(i)]; }, po);
  EXPECT_EQ(result.simulated, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(result.num_skipped, 1);  // only the infeasible candidate
  EXPECT_EQ(result.best, 1);
}

TEST(PrefilterBatch, IdenticalSelectionAndBestAtEveryThreadCount) {
  std::vector<double> scores;
  for (int i = 0; i < 64; ++i) scores.push_back(1.0 + 0.1 * (i % 17));
  const auto simulate = [&](int i) {
    return scores[static_cast<std::size_t>(i)] * (1.0 + 0.3 * ((i * 7) % 3) / 3.0);
  };
  sim::PrefilterOptions po;
  const auto serial = sim::PrefilterBatch(scores, simulate, po);
  for (int threads : {2, 8}) {
    po.threads = threads;
    const auto parallel = sim::PrefilterBatch(scores, simulate, po);
    EXPECT_EQ(serial.simulated, parallel.simulated) << "threads=" << threads;
    EXPECT_EQ(serial.values, parallel.values) << "threads=" << threads;
    EXPECT_EQ(serial.best, parallel.best) << "threads=" << threads;
    EXPECT_EQ(serial.best_value, parallel.best_value) << "threads=" << threads;
  }
}

TEST(PrefilterBatch, UpdatesTheMetricsCounters) {
  auto& metrics = obs::MetricsRegistry::Global();
  const std::int64_t sweeps0 = metrics.counter("prefilter.sweeps").value();
  const std::int64_t cand0 = metrics.counter("prefilter.candidates").value();
  const std::int64_t sim0 = metrics.counter("prefilter.simulated").value();
  const std::int64_t skip0 = metrics.counter("prefilter.skipped").value();

  const std::vector<double> scores = {1.0, 1.2, 9.0};
  sim::PrefilterOptions po;
  po.probe = 1;
  const auto result = sim::PrefilterBatch(
      scores, [&](int i) { return scores[static_cast<std::size_t>(i)]; }, po);

  EXPECT_EQ(metrics.counter("prefilter.sweeps").value(), sweeps0 + 1);
  EXPECT_EQ(metrics.counter("prefilter.candidates").value(), cand0 + 3);
  EXPECT_EQ(metrics.counter("prefilter.simulated").value(),
            sim0 + static_cast<std::int64_t>(result.simulated.size()));
  EXPECT_EQ(metrics.counter("prefilter.skipped").value(), skip0 + result.num_skipped);
  EXPECT_EQ(result.num_skipped + static_cast<int>(result.simulated.size()), 3);
}

// --- End-to-end recall over seeded fuzz corpora -------------------------

TEST(PrefilterRecall, OneHundredPercentRankOneRecallOverTheSeededCorpus) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 48; ++s) seeds.push_back(s);
  const std::vector<check::RankingFuzzOutcome> outcomes =
      check::RunRankingFuzzSweep(seeds, /*threads=*/8);

  long simulated = 0, candidates = 0;
  for (const check::RankingFuzzOutcome& out : outcomes) {
    EXPECT_TRUE(out.ok()) << out.Summary();
    simulated += out.num_simulated;
    candidates += out.num_candidates;
  }
  // Non-vacuity both ways: the corpus must contain real candidate pools
  // and the prefilter must actually skip a meaningful fraction — 100%
  // recall by simulating everything proves nothing.
  EXPECT_EQ(candidates, 48 * 24);
  EXPECT_LT(simulated, candidates / 2);
  EXPECT_GT(simulated, 0);
}

TEST(PrefilterRecall, SweepIsByteIdenticalAtEveryThreadCount) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 100; s < 112; ++s) seeds.push_back(s);
  const std::vector<check::RankingFuzzOutcome> serial =
      check::RunRankingFuzzSweep(seeds, /*threads=*/1);
  const std::vector<check::RankingFuzzOutcome> parallel =
      check::RunRankingFuzzSweep(seeds, /*threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].num_simulated, parallel[i].num_simulated) << "seed " << seeds[i];
    EXPECT_EQ(serial[i].best_prefiltered, parallel[i].best_prefiltered)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].best_prefiltered_makespan, parallel[i].best_prefiltered_makespan)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].best_full_makespan, parallel[i].best_full_makespan)
        << "seed " << seeds[i];
  }
}

TEST(PrefilterRecall, PinnedNearMissSeedsHold) {
  // 3410 and 16186 are the two worst analytic/sim cases of the calibration
  // sweep (see fuzz_regression_test.cc); their ranking-stream counterparts
  // stay pinned here so a bracket regression surfaces in the recall
  // property too, not just in the latency differential.
  for (const std::uint64_t seed : {3410ull, 16186ull}) {
    const check::RankingFuzzOutcome out = check::RunRankingFuzzSeed(seed);
    EXPECT_TRUE(out.ok()) << out.Summary();
    EXPECT_GT(out.num_candidates, 0) << "seed " << seed;
  }
}

TEST(PrefilterRecall, PrefilterOffIsTheTrivialBaseline) {
  const check::RankingFuzzOutcome out =
      check::RunRankingFuzzSeed(5, /*prefilter=*/false);
  EXPECT_TRUE(out.ok()) << out.Summary();
  // Off means both legs are the same full sweep: identical winners (by
  // index, not just value), and only analytically infeasible candidates
  // ever go unsimulated.
  EXPECT_EQ(out.best_prefiltered, out.best_full);
  EXPECT_GT(out.num_simulated, 0);
  EXPECT_LE(out.num_simulated, out.num_candidates);
}

}  // namespace
}  // namespace dapple
