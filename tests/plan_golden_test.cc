// Golden file for the paper's Table V planning set: each of the 18
// instances (6 models x Configs A/B/C at 16 devices) planned through
// Session::Plan twice — at default options, and with recompute=auto under a
// 4 GiB memory cap. Each record is the SerializePlan text, the estimated
// latency's 64-bit pattern and the number of candidates the search
// evaluated, or the error text when nothing fits. Any change to the search
// space, the estimator's bits, the re-rank or the refinement shows up here.
//
// To regenerate after an intentional change:
//
//   DAPPLE_REGEN_GOLDEN=1 ctest -L golden
//
// then review the diff of tests/golden/table5_plans.txt by hand.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "dapple/dapple.h"
#include "model/zoo.h"
#include "planner/plan_io.h"
#include "topo/cluster.h"

namespace dapple {
namespace {

std::string GoldenPath() { return std::string(DAPPLE_GOLDEN_DIR) + "/table5_plans.txt"; }

std::string RenderTableVPlans() {
  struct Row {
    const char* model;
    long gbs;
  };
  const Row rows[] = {{"ResNet-50", 2048}, {"VGG-19", 2048},  {"GNMT-16", 1024},
                      {"BERT-48", 64},     {"XLNet-36", 128}, {"AmoebaNet-36", 128}};
  planner::PlannerOptions capped;
  capped.recompute = planner::RecomputePolicy::kAuto;
  capped.latency.memory_cap = 4_GiB;
  std::ostringstream os;
  for (const auto& [label, options] :
       {std::pair{"default", planner::PlannerOptions{}}, std::pair{"auto-4GiB", capped}}) {
    for (const Row& row : rows) {
      for (char config : {'A', 'B', 'C'}) {
        const Session session(model::ModelByName(row.model),
                              config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16));
        os << "== " << row.model << " " << config << " gbs " << row.gbs << " " << label << "\n";
        try {
          const planner::PlanResult result = session.Plan(row.gbs, options);
          os << planner::SerializePlan(result.plan) << "latency 0x" << std::hex
             << std::bit_cast<std::uint64_t>(result.estimate.latency) << std::dec
             << "\ncandidates " << result.candidates_evaluated << "\n";
        } catch (const Error& e) {
          os << "error " << e.what() << "\n";
        }
      }
    }
  }
  return os.str();
}

TEST(PlanGoldenTest, TableVPlansMatchGolden) {
  const std::string text = RenderTableVPlans();

  if (std::getenv("DAPPLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << text;
    GTEST_SKIP() << "regenerated " << GoldenPath() << "; review the diff";
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath()
                         << " (run with DAPPLE_REGEN_GOLDEN=1 to create)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(text, buffer.str())
      << "Table V plans drifted from the golden file; if intentional, regenerate with "
         "DAPPLE_REGEN_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace dapple
