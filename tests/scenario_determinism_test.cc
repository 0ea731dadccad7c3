// Determinism sweep for the scenario layer, the long-horizon mirror of
// sim_determinism_test: a seeded corpus of churn episodes must serialize to
// byte-identical reports at every sweep thread count, and the co-scheduler
// must emit identical reports — including its cache hit/miss accounting —
// whether candidate evaluation runs inline or fanned across workers. Every
// fuzz mode (schedule, fault, memory-cap, scenario) must produce
// identical outcomes at every ThreadPool worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "common/units.h"
#include "fault/report.h"
#include "fuzz_env.h"
#include "model/zoo.h"
#include "planner/dp_planner.h"
#include "scenario/coscheduler.h"
#include "scenario/episode.h"
#include "scenario/fuzz.h"
#include "scenario/report.h"
#include "topo/cluster.h"

namespace dapple::scenario {
namespace {

int SweepInstances() {
  // DAPPLE_FUZZ_ITERATIONS scales the determinism sweep too, but never
  // below the pinned floor: 200 episodes across both churn models and all
  // four policies.
  return static_cast<int>(std::max(200L, EnvFuzzIterations(200)));
}

/// Everything about one episode that must not depend on the thread count.
std::string EpisodeFingerprint(const EpisodeReport& r) {
  return ToJson(r) + "\n" + fault::ToJson(r.fault) + "\n" + fault::ToChromeTrace(r.fault);
}

TEST(ScenarioDeterminismTest, EpisodeSweepIsByteIdenticalAtEveryThreadCount) {
  const model::ModelProfile m = model::MakeUniformSynthetic(6, 0.002, 0.004, 1_MiB, 1'000'000);
  const topo::Cluster cluster = topo::MakeConfigB(3);
  planner::PlannerOptions po;
  po.global_batch_size = 8;
  po.keep_alternatives = 0;
  const planner::ParallelPlan plan = planner::DapplePlanner(m, cluster, po).Plan().plan;

  const int instances = SweepInstances();
  const std::vector<fault::RecoveryPolicy> policies = fault::AllRecoveryPolicies();
  std::vector<EpisodeOptions> episodes;
  for (int i = 0; i < instances; ++i) {
    EpisodeOptions o;
    o.seed = static_cast<std::uint64_t>(i);
    o.churn = (i % 2 == 0) ? ChurnModel::kSpotChurn : ChurnModel::kRollingMaintenance;
    o.churn_options.horizon = 20.0;
    o.churn_options.min_outage = 2.0;
    o.churn_options.max_outage = 5.0;
    o.churn_options.maintenance_period = 5.0;
    o.churn_options.drain_duration = 2.0;
    o.policy = policies[static_cast<std::size_t>(i) % policies.size()];
    o.fault.build.global_batch_size = 8;
    o.fault.planner.keep_alternatives = 0;
    episodes.push_back(o);
  }

  const std::vector<EpisodeReport> serial = RunEpisodeSweep(m, cluster, plan, episodes, 1);
  ASSERT_EQ(serial.size(), episodes.size());
  std::vector<std::string> fingerprints;
  fingerprints.reserve(serial.size());
  for (const EpisodeReport& r : serial) fingerprints.push_back(EpisodeFingerprint(r));

  for (const int threads : {2, 8}) {
    const std::vector<EpisodeReport> batched =
        RunEpisodeSweep(m, cluster, plan, episodes, threads);
    ASSERT_EQ(batched.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(EpisodeFingerprint(batched[i]), fingerprints[i])
          << "episode " << i << " drifted at threads=" << threads;
    }
  }
}

TEST(ScenarioDeterminismTest, CoScheduleReportIsByteIdenticalAtEveryWorkerCount) {
  const model::ModelProfile m = model::MakeUniformSynthetic(6, 0.002, 0.004, 1_MiB, 1'000'000);
  const topo::Cluster budget = topo::MakeConfigB(5);
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec{"a", m, 16, 100});
  jobs.push_back(JobSpec{"b", m, 8, 50});
  jobs.push_back(JobSpec{"c", m, 4, 25});

  auto run = [&](int sim_threads) {
    CoScheduleOptions options;
    options.sim_threads = sim_threads;
    options.planner.keep_alternatives = 0;
    return ToJson(CoSchedule(budget, jobs, options));
  };

  const std::string serial = run(1);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(run(threads), serial)
        << "co-schedule report (including cache accounting) drifted at sim_threads="
        << threads;
  }
}

// Every fuzz mode's sweep, on a ThreadPool of 1, 2 and 8 workers, must
// equal running its cases one at a time — outcome for outcome, every field.
template <class Mode>
class FuzzSweepDeterminism : public ::testing::Test {};

using FuzzModes =
    ::testing::Types<check::ScheduleFuzz, check::FaultFuzz, check::MemoryCapFuzz, ScenarioFuzz>;
TYPED_TEST_SUITE(FuzzSweepDeterminism, FuzzModes);

TYPED_TEST(FuzzSweepDeterminism, SweepMatchesOneAtATimeAtEveryThreadCount) {
  using Mode = TypeParam;
  const std::vector<std::uint64_t> seeds = check::SeedRange(0, 24);
  std::vector<typename Mode::Outcome> serial;
  for (const std::uint64_t seed : seeds) serial.push_back(Mode::Run(Mode::Make(seed)));

  for (const int threads : {1, 2, 8}) {
    const std::vector<typename Mode::Outcome> swept = check::RunSweep<Mode>(seeds, threads);
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
      EXPECT_TRUE(swept[i] == serial[i])
          << "seed " << seeds[i] << " drifted at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dapple::scenario
