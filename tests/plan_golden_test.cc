// Golden files for the paper's Table V planning set: each of the 18
// instances (6 models x Configs A/B/C at 16 devices) planned twice — at
// default options, and with recompute=auto under a 4 GiB memory cap.
//
// table5_plans.txt holds each Session::Plan result: the SerializePlan text,
// the estimated latency's 64-bit pattern and the number of candidates the
// search evaluated, or the error text when nothing fits. Any change to the
// search space, the estimator's bits, the re-rank or the refinement shows
// up here.
//
// table5_alternatives.txt holds every DapplePlanner::Plan alternative, in
// order, as SerializePlan text and latency bits: the planner's top-k
// (distinct stage structures, ascending latency, ties in merge order) plus
// the pinned data-parallel plan, before the Session re-ranks them.
//
// To regenerate after an intentional change:
//
//   DAPPLE_REGEN_GOLDEN=1 ctest -L golden
//
// then review the diff of tests/golden/table5_*.txt by hand.
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
#include "planner/dp_planner.h"
#include "planner/plan_io.h"
#include "topo/cluster.h"

namespace dapple {
namespace {

/// Calls run(header, session, gbs, options) for each of the 36 Table V
/// runs, in golden order, and returns what the runs wrote after each
/// header, or the error text a run threw.
template <typename Run>
std::string RenderTableV(Run&& run) {
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
          run(os, session, row.gbs, options);
        } catch (const Error& e) {
          os << "error " << e.what() << "\n";
        }
      }
    }
  }
  return os.str();
}

void WriteLatency(std::ostream& os, TimeSec latency) {
  os << "latency 0x" << std::hex << std::bit_cast<std::uint64_t>(latency) << std::dec << "\n";
}

/// Compares `text` with golden file `name`, or rewrites the file under
/// DAPPLE_REGEN_GOLDEN.
void ExpectGolden(const std::string& name, const std::string& text) {
  const std::string path = std::string(DAPPLE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("DAPPLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    GTEST_SKIP() << "regenerated " << path << "; review the diff";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DAPPLE_REGEN_GOLDEN=1 to create)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(text, buffer.str()) << name
                                << " drifted from the golden file; if intentional, regenerate "
                                   "with DAPPLE_REGEN_GOLDEN=1 and review the diff";
}

TEST(PlanGoldenTest, TableVPlansMatchGolden) {
  ExpectGolden("table5_plans.txt",
               RenderTableV([](std::ostream& os, const Session& session, long gbs,
                               const planner::PlannerOptions& options) {
                 const planner::PlanResult result = session.Plan(gbs, options);
                 os << planner::SerializePlan(result.plan);
                 WriteLatency(os, result.estimate.latency);
                 os << "candidates " << result.stats.candidates_evaluated << "\n";
               }));
}

TEST(PlanGoldenTest, TableVAlternativesMatchGolden) {
  ExpectGolden("table5_alternatives.txt",
               RenderTableV([](std::ostream& os, const Session& session, long gbs,
                               planner::PlannerOptions options) {
                 options.global_batch_size = gbs;
                 const planner::PlanResult result =
                     planner::DapplePlanner(session.model(), session.cluster(), options).Plan();
                 for (const auto& [plan, estimate] : result.alternatives) {
                   os << planner::SerializePlan(plan);
                   WriteLatency(os, estimate.latency);
                 }
               }));
}

}  // namespace
}  // namespace dapple
