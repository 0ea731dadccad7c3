// Randomized fault-recovery sweep: each seed derives a (model, cluster,
// plan) configuration, a random fault script, and a recovery policy, runs
// the full experiment, and pushes every pipeline it builds — initial,
// checkpoint-remapped, elastically replanned — through the complete
// ScheduleValidator invariant set (see check/fuzz.h).
//
// Seeds come from the environment (tests/fuzz_env.h); reproduce a failure
// with `build/tools/dapple_fuzz --faults --repro <seed printed by the failure>`.
#include <gtest/gtest.h>

#include <vector>

#include "check/fuzz.h"
#include "fuzz_env.h"

namespace dapple {
namespace {

TEST(FaultFuzzTest, RecoveredSchedulesSatisfyAllInvariants) {
  const std::vector<std::uint64_t> seeds = EnvFuzzSeeds(100);
  const long iterations = static_cast<long>(seeds.size());

  check::FaultFuzz::Tally tally;
  for (const std::uint64_t seed : seeds) {
    const check::FaultFuzzCase c = check::FaultFuzz::Make(seed);
    const check::FaultFuzzOutcome out = check::FaultFuzz::Run(c);
    ASSERT_TRUE(out.ok()) << out.Summary() << "  case: " << c.Describe();
    EXPECT_GE(out.pipelines_validated, 1) << c.Describe();
    tally.Add(out);
  }
  // The generator must keep exercising the interesting recovery paths, not
  // just fault-free baselines (distribution drift would gut the test).
  EXPECT_GE(tally.pipelines, iterations);
  EXPECT_GE(tally.replans + tally.restores, iterations / 20);
}

TEST(FaultFuzzTest, CasesAreDeterministicInTheSeed) {
  const check::FaultFuzzCase a = check::FaultFuzz::Make(17);
  const check::FaultFuzzCase b = check::FaultFuzz::Make(17);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.script.ToString(), b.script.ToString());
  EXPECT_TRUE(check::FaultFuzz::Run(a) == check::FaultFuzz::Run(b));
}

}  // namespace
}  // namespace dapple
