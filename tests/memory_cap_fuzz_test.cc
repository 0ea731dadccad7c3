// The OOM-free guarantee under random memory caps: every seeded case draws
// a model, a schedule family and a per-device cap scaled around the
// family's uncapped peak; the planner must either declare the cap
// infeasible or emit a plan whose capped simulation passes the full
// validator with zero OOM violations (see src/check/fuzz.h).
//
// Seeds come from the environment (tests/fuzz_env.h; the acceptance sweep
// is DAPPLE_FUZZ_ITERATIONS=1000); reproduce a failure with
// `build/tools/dapple_fuzz --memory-cap --repro <seed printed on failure>`.
#include <gtest/gtest.h>

#include <vector>

#include "check/fuzz.h"
#include "fuzz_env.h"
#include "runtime/schedule.h"

namespace dapple {
namespace {

TEST(MemoryCapFuzzTest, PlannerNeverEmitsAnOomPlanUnderRandomCaps) {
  const std::vector<std::uint64_t> seeds = EnvFuzzSeeds(250);
  const long iterations = static_cast<long>(seeds.size());

  check::MemoryCapFuzz::Tally tally;
  for (const std::uint64_t seed : seeds) {
    const check::MemoryCapFuzzCase c = check::MemoryCapFuzz::Make(seed);
    const check::MemoryCapFuzzOutcome out = check::MemoryCapFuzz::Run(c);
    ASSERT_TRUE(out.ok()) << out.Summary() << "  case: " << c.Describe();
    if (out.planned) {
      EXPECT_LE(out.analytic_peak, out.memory_cap) << c.Describe();
      EXPECT_LE(out.simulated_peak, out.memory_cap) << c.Describe();
    }
    tally.Add(out);
  }
  // The cap draw (0.25x–1.3x of the uncapped peak) must keep both outcomes
  // and the recompute fit search exercised; a distribution drift here would
  // silently gut the guarantee this test claims.
  EXPECT_GE(tally.planned, iterations / 4);
  EXPECT_GE(tally.infeasible, iterations / 20);
  EXPECT_GE(tally.with_recompute, iterations / 100);
  // Every schedule family must appear — the cap semantics differ per family
  // (GPipe's M stashes, DAPPLE's warmup depths, the V shapes' folded
  // chunks), so dropping one would skip its peak model entirely.
  const auto& all_kinds = runtime::AllScheduleKinds();
  for (std::size_t k = 0; k < all_kinds.size(); ++k) {
    EXPECT_GE(tally.kind_counts[k], iterations / 20)
        << "schedule kind " << runtime::ToString(all_kinds[k])
        << " underrepresented in " << iterations << " cases";
  }
}

TEST(MemoryCapFuzzTest, CasesAreDeterministicInTheSeed) {
  const check::MemoryCapFuzzCase a = check::MemoryCapFuzz::Make(29);
  const check::MemoryCapFuzzCase b = check::MemoryCapFuzz::Make(29);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_TRUE(check::MemoryCapFuzz::Run(a) == check::MemoryCapFuzz::Run(b));
}

}  // namespace
}  // namespace dapple
