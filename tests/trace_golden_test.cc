// Golden-file tests for the Chrome trace exporter: the paper's Fig. 3
// scenario (two single-device stages, M = 4) serialized under each
// schedule family must match the checked-in JSON byte-for-byte. Any change
// to the trace format, a schedule's shape, or the engine's tie-breaking
// shows up as a diff here before it reaches users' traces. Each trace is
// rendered from both the engine and the reference engine — the two must
// agree to the byte before either is compared against the golden.
//
// To regenerate after an intentional format/schedule change:
//
//   DAPPLE_REGEN_GOLDEN=1 ctest -L golden
//
// then review the diff of tests/golden/fig3_*.json by hand.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "model/zoo.h"
#include "runtime/graph_builder.h"
#include "runtime/schedule.h"
#include "sim/chrome_trace.h"
#include "sim/engine.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple {
namespace {

struct GoldenCase {
  runtime::ScheduleKind kind;
  const char* file;
};

// The incumbent DAPPLE golden keeps its historical filename; each family
// added by the schedule-space expansion pins its own.
const GoldenCase kGoldenCases[] = {
    {runtime::ScheduleKind::kDapple, "fig3_two_stage_m4.json"},
    {runtime::ScheduleKind::kDappleSplitBw, "fig3_dapple_2bp_m4.json"},
    {runtime::ScheduleKind::kVMin, "fig3_v_min_m4.json"},
    {runtime::ScheduleKind::kVHalf, "fig3_v_half_m4.json"},
};

std::string GoldenPath(const GoldenCase& c) {
  return std::string(DAPPLE_GOLDEN_DIR) + "/" + c.file;
}

runtime::BuiltPipeline BuildFig3(runtime::ScheduleKind kind) {
  // Exact-representable layer times (2 ms / 4 ms) keep the emitted
  // microsecond timestamps integral and platform-independent.
  const auto m = model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000);
  const topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back({0, 2, topo::DeviceSet::Range(0, 1)});
  plan.stages.push_back({2, 4, topo::DeviceSet::Range(1, 1)});
  runtime::BuildOptions options;
  options.global_batch_size = 4;  // micro-batch size 1 => M = 4
  options.schedule.kind = kind;
  return runtime::GraphBuilder(m, cluster, plan, options).Build();
}

class TraceGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TraceGoldenTest, Fig3TwoStageScheduleMatchesGolden) {
  const GoldenCase& c = GetParam();
  const runtime::BuiltPipeline built = BuildFig3(c.kind);
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  const std::string trace = sim::ToChromeTrace(built.graph, result);

  // The engine and the reference engine must render the identical trace —
  // schedule families exercise different task kinds and tie-break paths,
  // and both engines have to agree on all of them.
  const sim::SimResult reference =
      sim::RunReferenceEngine(built.graph, built.engine_options);
  EXPECT_EQ(trace, sim::ToChromeTrace(built.graph, reference))
      << "engine and reference engine disagree for "
      << runtime::ToString(c.kind);

  if (std::getenv("DAPPLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(c), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath(c);
    out << trace;
    GTEST_SKIP() << "regenerated " << GoldenPath(c) << "; review the diff";
  }

  std::ifstream in(GoldenPath(c), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath(c)
                         << " (regenerate with DAPPLE_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(trace, golden.str())
      << "trace output drifted from " << GoldenPath(c)
      << "; if intentional, regenerate with DAPPLE_REGEN_GOLDEN=1 and review";
}

INSTANTIATE_TEST_SUITE_P(Families, TraceGoldenTest, ::testing::ValuesIn(kGoldenCases),
                         [](const testing::TestParamInfo<GoldenCase>& info) {
                           std::string name = runtime::ToString(info.param.kind);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dapple
