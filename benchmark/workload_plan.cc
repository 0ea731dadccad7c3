// plan-cold: the paper's Table V planning set, planned cold. Every call is
// a fresh Session::Plan on a serial planner, so nothing is cached across
// plans; the DP search and its stage-cost cache do almost all the work.
// One operation is one pass over the 18 instances: per-instance times
// range over 60x, so a median over instances would jump between them. A
// pass takes 21-38 s on one core of the baseline host, so a run holds one
// pass even when it asks for fewer seconds.
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "check/validator.h"
#include "dapple/dapple.h"
#include "planner/plan_io.h"
#include "replay.h"
#include "sim/engine.h"

namespace dapple::e2e {

namespace {

struct Instance {
  Session session;
  long gbs = 0;
  std::string label;
};

/// The 18 Table V instances (6 models x Configs A/B/C at 16 devices), in
/// table order. The order is fixed because it moves peak RSS by tens of
/// percent (the allocator keeps what earlier searches freed).
std::vector<Instance> TableV() {
  struct Row {
    const char* model;
    long gbs;
  };
  const Row rows[] = {{"ResNet-50", 2048}, {"VGG-19", 2048},  {"GNMT-16", 1024},
                      {"BERT-48", 64},     {"XLNet-36", 128}, {"AmoebaNet-36", 128}};
  std::vector<Instance> instances;
  for (const Row& row : rows) {
    const model::ModelProfile model = model::ModelByName(row.model);
    for (char config : {'A', 'B', 'C'}) {
      topo::Cluster cluster =
          config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16);
      instances.push_back(Instance{Session(model, std::move(cluster)), row.gbs,
                                   std::string(row.model) + "/" + config});
    }
  }
  return instances;
}

/// The byte-stable identity of a planning result.
std::string Fingerprint(const planner::PlanResult& result) {
  return planner::SerializePlan(result.plan) + "latency=" +
         std::to_string(std::bit_cast<std::uint64_t>(result.estimate.latency));
}

/// The warm-up instance, planned once per set-up: GNMT-16 on Config A.
constexpr std::size_t kWarmUp = 6;

}  // namespace

RunResult RunPlanCold(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  planner::PlannerOptions planner_options;
  planner_options.num_threads = 1;

  // Set-up builds the sessions and plans one instance, which warms the
  // caches and the allocator before the window and is the first of the
  // determinism references below.
  std::vector<std::string> warm_ups;
  auto setup = [&] {
    std::vector<Instance> built = TableV();
    const Instance& warm_up = built[kWarmUp];
    warm_ups.push_back(Fingerprint(warm_up.session.Plan(warm_up.gbs, planner_options)));
    return built;
  };
  const std::vector<Instance> instances = RepeatSetup(result, setup);

  SpanBuffer* spans = options.trace ? &tracer.NewBuffer() : nullptr;
  std::vector<SampledOp> sampled;
  // First-pass result per instance; later passes must reproduce it.
  std::vector<planner::PlanResult> planned(instances.size());
  std::vector<int> mismatches(instances.size(), 0);
  double plan_wall = 0.0, enumerate = 0.0, evaluate = 0.0, merge = 0.0;

  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Clock::time_point start = Clock::now();
  std::int64_t op = 0;
  int passes = 0;
  // Whole passes only, and no pass that would end well past the window.
  do {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < instances.size(); ++i, ++op) {
      const Instance& instance = instances[i];
      const Clock::time_point t0 = Clock::now();
      planner::PlanResult plan = instance.session.Plan(instance.gbs, planner_options);
      const Clock::time_point t1 = Clock::now();
      plan_wall += SecondsBetween(t0, t1);
      enumerate += plan.stats.enumerate_seconds;
      evaluate += plan.stats.evaluate_seconds;
      merge += plan.stats.merge_seconds;
      if (spans && op % kSampleEvery == 0) {
        sampled.push_back(SampledOp{op, spans->Add("op.plan", t0, t1, op), i});
        result.record_seconds += SecondsBetween(t1, Clock::now());
      }
      if (passes == 0) {
        planned[i] = std::move(plan);
      } else if (Fingerprint(plan) != Fingerprint(planned[i])) {
        ++mismatches[i];
      }
    }
    ++passes;
    result.ops.push_back({pass_start, Clock::now()});
  } while (SecondsBetween(start, Clock::now()) + result.ops.back().seconds() <= options.seconds);
  result.window = {start, Clock::now()};
  const RegistrySnapshot after = RegistrySnapshot::Take();
  result.attempted = static_cast<long>(op);
  RepeatSetup(result, setup);

  // Determinism: every set-up plan of the warm-up instance matches the
  // window's, and with one pass in the window one Config B or C instance,
  // chosen by the seed, is planned again outside it (these take at most
  // 2 s; Config A instances take up to 4 s).
  for (const std::string& warm_up : warm_ups) {
    if (warm_up != Fingerprint(planned[kWarmUp])) ++mismatches[kWarmUp];
  }
  if (passes == 1) {
    std::vector<std::size_t> of_b_or_c;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].label.back() != 'A') of_b_or_c.push_back(i);
    }
    const std::size_t i = of_b_or_c[MixSeed(options.seed, 1) % of_b_or_c.size()];
    const planner::PlanResult again = instances[i].session.Plan(instances[i].gbs, planner_options);
    if (Fingerprint(again) != Fingerprint(planned[i])) ++mismatches[i];
  }

  // Every plan must simulate without OOM and pass the schedule validator.
  double log_throughput = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    if (mismatches[i] > 0) {
      result.Fail(instance.label + ": plan differs between runs", passes);
      continue;
    }
    runtime::BuildOptions build;
    build.global_batch_size = instance.gbs;
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(instance.session.model(), instance.session.cluster(),
                              planned[i].plan, build)
            .Build();
    const sim::SimResult sim = sim::Engine::Run(built.graph, built.engine_options);
    const check::ValidationReport report =
        check::ScheduleValidator(planned[i].plan, built.options).Validate(built, sim);
    if (sim.AnyOom() || !report.ok()) {
      result.Fail(instance.label + ": plan " + (sim.AnyOom() ? "OOMs" : report.ToString()),
                  passes);
    }
    log_throughput += std::log(static_cast<double>(instance.gbs) / sim.makespan);
  }
  result.layers["plan.sim_throughput"] =
      std::exp(log_throughput / static_cast<double>(instances.size()));

  AddRegistryLayers(result, before, after);
  result.layers["dapple.rerank_refine_s"] = plan_wall - result.layers["planner.search_s"];
  result.layers["planner.enumerate_s"] = enumerate;
  result.layers["planner.evaluate_s"] = evaluate;
  result.layers["planner.merge_s"] = merge;

  if (spans) {
    Replayer replayer(*spans, kReplayShare * options.seconds);
    for (const SampledOp& s : sampled) {
      if (!replayer.HasBudget()) break;
      const Instance& instance = instances[s.input];
      runtime::BuildOptions build;
      build.global_batch_size = instance.gbs;
      replayer.Pipeline(s, instance.session.model(), instance.session.cluster(),
                        planned[s.input].plan, build, /*with_report=*/false);
    }
    replayer.Finish(result);
  }
  return result;
}

}  // namespace dapple::e2e
