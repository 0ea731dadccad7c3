// Plan explorer: define a custom model (layer-by-layer), pick a hardware
// config, and compare what the DAPPLE planner chooses against hand-rolled
// alternatives — the workflow a performance engineer would use before
// committing cluster time.
//
// Usage: plan_explorer [config-letter] [global-batch]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "dapple/dapple.h"

using namespace dapple;

namespace {

// A made-up recommendation model: a wide, parameter-heavy embedding front
// (the e-commerce workloads the paper's introduction motivates), a stack
// of interaction layers, and a small scoring head.
model::ModelProfile MakeRecommender() {
  std::vector<model::LayerProfile> layers;
  auto add = [&](std::string name, double fwd_ms, double act_mb, double params_m) {
    model::LayerProfile l;
    l.name = std::move(name);
    l.forward_time = fwd_ms * 1e-3;
    l.backward_time = 2 * fwd_ms * 1e-3;
    l.fixed_overhead = 0.2e-3;
    l.output_activation = MiB(act_mb);
    l.activation_memory = MiB(act_mb * 1.5);
    l.param_count = static_cast<std::uint64_t>(params_m * 1e6);
    layers.push_back(std::move(l));
  };
  add("embedding", 2.0, 48.0, 450.0);  // huge sparse-ish table, light compute
  for (int i = 0; i < 10; ++i) {
    add("interact" + std::to_string(i), 6.0, 12.0, 8.0);
  }
  add("scoring", 1.5, 0.5, 2.0);
  return model::ModelProfile("Recommender", std::move(layers), /*profile_micro_batch=*/64,
                             model::OptimizerKind::kAdam);
}

}  // namespace

int main(int argc, char** argv) {
  const char config = argc > 1 ? argv[1][0] : 'A';
  const long gbs = argc > 2 ? std::atol(argv[2]) : 2048;

  const model::ModelProfile m = MakeRecommender();
  const topo::Cluster cluster =
      config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16);
  Session session(m, cluster);

  std::printf("model %s: %.0fM params, %d layers, cluster %s (%d devices), GBS %ld\n",
              m.name().c_str(), m.TotalParamCount() / 1e6, m.num_layers(),
              cluster.name().c_str(), cluster.num_devices(), gbs);

  const auto planned = session.Plan(gbs);
  std::printf("\nplanner choice: %s (split %s), %ld candidates evaluated\n%s",
              planned.plan.ToString().c_str(), planned.plan.SplitString().c_str(),
              planned.stats.candidates_evaluated, planned.plan.ToDetailedString().c_str());

  // Compare against the obvious hand-rolled strategies.
  AsciiTable table({"Strategy", "Latency", "Throughput (samples/s)", "Speedup",
                    "Max peak mem"});
  auto add_row = [&](const std::string& name, const planner::ParallelPlan& plan) {
    const auto r = session.Run(plan, gbs);
    table.AddRow({name, FormatTime(r.makespan), AsciiTable::Num(r.throughput, 0),
                  AsciiTable::Num(r.speedup, 2), FormatBytes(r.max_peak_memory)});
  };
  add_row("DAPPLE planner", planned.plan);
  add_row("pure data parallel", planner::MakeDataParallelPlan(m, cluster));
  {
    // Isolate the parameter-heavy embedding on one device.
    planner::ParallelPlan manual;
    manual.model = m.name();
    planner::StagePlan s0, s1;
    s0.layer_begin = 0;
    s0.layer_end = 1;
    s0.devices = topo::DeviceSet::Range(0, 1);
    s1.layer_begin = 1;
    s1.layer_end = m.num_layers();
    s1.devices = topo::DeviceSet::Range(1, cluster.num_devices() - 1);
    manual.stages = {s0, s1};
    add_row("embedding-isolated 1:" + std::to_string(cluster.num_devices() - 1), manual);
  }
  {
    planner::PipedreamPlanner pipedream(m, cluster);
    add_row("PipeDream strategy", pipedream.Plan());
  }
  std::printf("\n%s", table.ToString().c_str());
  return 0;
}
