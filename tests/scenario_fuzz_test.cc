// Randomized churn-episode sweep: each seed derives a (model, cluster,
// plan) configuration from the fault-fuzz stream, a spot or rolling churn
// script, and a recovery policy, runs the whole episode, and pushes every
// pipeline it builds — initial, remapped, replanned, scale-up — through the
// complete ScheduleValidator invariant set (see scenario/fuzz.h).
//
// Seeds come from the environment (tests/fuzz_env.h); reproduce a failure
// with `build/tools/dapple_fuzz --scenario --repro <seed printed by the failure>`.
#include <gtest/gtest.h>

#include <vector>

#include "fuzz_env.h"
#include "scenario/fuzz.h"

namespace dapple {
namespace {

TEST(ScenarioFuzzTest, ChurnEpisodesSatisfyAllInvariants) {
  const std::vector<std::uint64_t> seeds = EnvFuzzSeeds(100);
  const long iterations = static_cast<long>(seeds.size());

  scenario::ScenarioFuzz::Tally tally;
  for (const std::uint64_t seed : seeds) {
    const scenario::ScenarioFuzzCase c = scenario::ScenarioFuzz::Make(seed);
    const scenario::ScenarioFuzzOutcome out = scenario::ScenarioFuzz::Run(c);
    ASSERT_TRUE(out.ok()) << out.Summary() << "  case: " << c.Describe();
    EXPECT_GE(out.pipelines_validated, 1) << c.Describe();
    tally.Add(out);
  }
  // The generator must keep churning and keep growing clusters back under
  // elastic-up, not just run quiet episodes (distribution drift would gut
  // the test).
  EXPECT_GE(tally.pipelines, iterations);
  EXPECT_GE(tally.preemptions, iterations);
  EXPECT_GE(tally.scale_ups, iterations / 10);
}

TEST(ScenarioFuzzTest, CasesAreDeterministicInTheSeed) {
  const scenario::ScenarioFuzzCase a = scenario::ScenarioFuzz::Make(17);
  const scenario::ScenarioFuzzCase b = scenario::ScenarioFuzz::Make(17);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_TRUE(scenario::ScenarioFuzz::Run(a) == scenario::ScenarioFuzz::Run(b));
}

}  // namespace
}  // namespace dapple
