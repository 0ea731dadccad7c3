// Randomized differential test: hundreds of seeded configurations through
// planner → graph_builder → engine, each checked against the full
// ScheduleValidator invariant set plus the analytic-latency bracket and the
// peak-memory-vs-M differential (see src/check/fuzz.h).
//
// Seeds come from the environment (tests/fuzz_env.h); reproduce a failure
// with `build/tools/dapple_fuzz --repro <seed printed by the failure>`.
#include <gtest/gtest.h>

#include <vector>

#include "check/fuzz.h"
#include "fuzz_env.h"
#include "runtime/schedule.h"

namespace dapple {
namespace {

TEST(ValidatorFuzzTest, RandomConfigsSatisfyAllInvariants) {
  const std::vector<std::uint64_t> seeds = EnvFuzzSeeds(250);
  const long iterations = static_cast<long>(seeds.size());

  check::ScheduleFuzz::Tally tally;
  for (const std::uint64_t seed : seeds) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const check::FuzzOutcome out = check::ScheduleFuzz::Run(c);
    ASSERT_TRUE(out.ok()) << out.Summary() << "  case: " << c.Describe();
    EXPECT_GE(out.report.checks_run, 7) << c.Describe();
    EXPECT_GT(out.num_tasks, 0) << c.Describe();
    tally.Add(out);
  }
  // The generator must keep exercising both differentials, not just the
  // validator (a distribution drift here would silently gut the test). The
  // latency bracket only fires on split-mode DAPPLE cases without a warmup
  // override, so its floor is one in twenty now that the kind draw is
  // uniform over five families.
  EXPECT_GE(tally.latency_checked, iterations / 20);
  EXPECT_GE(tally.peak_checked, iterations / 10);
  // Every schedule family must appear; a sweep that silently drops one
  // (e.g. a biased kind draw) guts the coverage this test claims.
  const auto& all_kinds = runtime::AllScheduleKinds();
  for (std::size_t k = 0; k < all_kinds.size(); ++k) {
    EXPECT_GE(tally.kind_counts[k], iterations / 20)
        << "schedule kind " << runtime::ToString(all_kinds[k])
        << " underrepresented in " << iterations << " cases";
  }
}

TEST(ValidatorFuzzTest, CasesAreDeterministicInTheSeed) {
  const check::FuzzCase a = check::MakeFuzzCase(17);
  const check::FuzzCase b = check::MakeFuzzCase(17);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_TRUE(check::ScheduleFuzz::Run(a) == check::ScheduleFuzz::Run(b));
}

}  // namespace
}  // namespace dapple
