#include "check/fuzz.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/degrade.h"
#include "planner/dp_planner.h"
#include "planner/latency.h"
#include "sim/engine.h"
#include "topo/device_set.h"

namespace dapple::check {

namespace {

model::ModelProfile RandomModel(Rng& rng) {
  const int layers = static_cast<int>(rng.UniformInt(2, 12));
  std::vector<model::LayerProfile> list;
  list.reserve(static_cast<std::size_t>(layers));
  for (int i = 0; i < layers; ++i) {
    model::LayerProfile l;
    l.name = "l" + std::to_string(i);
    l.forward_time = rng.Uniform(0.001, 0.05);
    l.backward_time = l.forward_time * rng.Uniform(1.5, 2.5);
    l.fixed_overhead = rng.Uniform(0.0, 0.001);
    l.output_activation = static_cast<Bytes>(rng.UniformInt(0, 32)) * 1_MiB;
    l.activation_memory = l.output_activation * 2 + 1_KiB;
    l.param_count = static_cast<std::uint64_t>(rng.UniformInt(0, 20'000'000));
    list.push_back(std::move(l));
  }
  const auto optimizer = static_cast<model::OptimizerKind>(rng.UniformInt(0, 2));
  return model::ModelProfile("fuzz", std::move(list),
                             static_cast<int>(rng.UniformInt(1, 4)), optimizer);
}

topo::Cluster RandomCluster(Rng& rng) {
  topo::Cluster cluster = [&] {
    switch (rng.UniformInt(0, 3)) {
      case 0: return topo::MakeConfigA(1);  // 8 devices, NVLink inside
      case 1: return topo::MakeConfigB(static_cast<int>(rng.UniformInt(2, 4)));
      case 2: return topo::MakeConfigC(static_cast<int>(rng.UniformInt(2, 4)));
      default:  // two small multi-GPU servers: placement policies diverge
        return topo::Cluster("fuzz-2x2", 2, 2, topo::DeviceSpec{},
                             topo::InterconnectSpec{});
    }
  }();
  if (rng.Bernoulli(0.25)) {
    std::vector<double> speeds(static_cast<std::size_t>(cluster.num_servers()));
    for (double& s : speeds) s = rng.Uniform(0.5, 1.0);
    cluster = cluster.WithServerSpeeds(std::move(speeds));
  }
  return cluster;
}

planner::ParallelPlan RandomPlan(Rng& rng, const model::ModelProfile& m,
                                 const topo::Cluster& cluster) {
  const int max_stages =
      std::min({m.num_layers(), cluster.num_devices(), 4});
  const int stages = static_cast<int>(rng.UniformInt(1, max_stages));
  std::vector<int> splits = {0, m.num_layers()};
  while (static_cast<int>(splits.size()) < stages + 1) {
    const int s = static_cast<int>(rng.UniformInt(1, m.num_layers() - 1));
    if (std::find(splits.begin(), splits.end(), s) == splits.end()) splits.push_back(s);
  }
  std::sort(splits.begin(), splits.end());
  planner::ParallelPlan plan;
  plan.model = m.name();
  int next_dev = 0;
  for (std::size_t i = 0; i + 1 < splits.size(); ++i) {
    const int remaining_stages = static_cast<int>(splits.size() - 2 - i);
    const int available = cluster.num_devices() - next_dev - remaining_stages;
    const int r = static_cast<int>(rng.UniformInt(1, std::max(1, std::min(available, 4))));
    planner::StagePlan sp;
    sp.layer_begin = splits[i];
    sp.layer_end = splits[i + 1];
    sp.devices = topo::DeviceSet::Range(next_dev, r);
    next_dev += r;
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string Format(const char* fmt, ...) {
  va_list args;
  va_list copy;
  va_start(args, fmt);
  va_copy(copy, args);
  std::string out(static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, copy)), '\0');
  va_end(copy);
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// The opening of every tally line: "<N> <mode>cases ok (seeds A..B): ".
std::string CasesOk(long cases, const char* mode, std::uint64_t base) {
  return Format("%ld %scases ok (seeds %llu..%llu): ", cases, mode,
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(base + static_cast<std::uint64_t>(cases) - 1));
}

void CountKind(std::vector<long>& counts, runtime::ScheduleKind kind) {
  const auto& kinds = runtime::AllScheduleKinds();
  ++counts[static_cast<std::size_t>(std::find(kinds.begin(), kinds.end(), kind) - kinds.begin())];
}

std::string KindCountsLine(const std::vector<long>& counts) {
  const auto& kinds = runtime::AllScheduleKinds();
  std::string line = "cases per schedule kind:";
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    line += Format("%s %s=%ld", k ? "," : "", runtime::ToString(kinds[k]), counts[k]);
  }
  return line + "\n";
}

}  // namespace

std::vector<std::uint64_t> SeedRange(std::uint64_t base, long count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) seeds.push_back(base + static_cast<std::uint64_t>(i));
  return seeds;
}

std::string FuzzCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " model=" << model.num_layers() << "L/pmb"
     << model.profile_micro_batch() << " cluster=" << cluster.name() << "("
     << cluster.num_devices() << ") plan=" << plan.ToString() << " gbs="
     << options.global_batch_size << " " << runtime::ToString(options.schedule.kind) << "/"
     << runtime::ToString(options.schedule.warmup)
     << (std::all_of(plan.stages.begin(), plan.stages.end(),
                     [](const planner::StagePlan& s) { return s.recompute; })
             ? "/recompute"
             : "");
  if (options.schedule.warmup_override > 0) {
    os << "/K=" << options.schedule.warmup_override;
  }
  os << " " << runtime::ToString(options.replication)
     << (options.enforce_memory_capacity ? " capped" : " uncapped");
  return os.str();
}

FuzzCase MakeFuzzCase(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  model::ModelProfile model = RandomModel(rng);
  topo::Cluster cluster = RandomCluster(rng);

  runtime::BuildOptions options;
  options.global_batch_size =
      rng.UniformInt(1, 6) * 4 * model.profile_micro_batch();
  // The kind draw lives on its own salted side-stream (same rationale as
  // the fault-script stream below): when the schedule space grew past two
  // kinds, replacing this draw in the main stream would have shifted every
  // later model/cluster/plan draw and silently rewritten the pinned
  // regression seeds. The legacy Bernoulli is still consumed so the main
  // stream stays bit-identical to the two-kind era.
  (void)rng.Bernoulli(0.5);
  Rng kind_rng(seed * 0x9e3779b97f4a7c15ull + 0xa0761d6478bd642full);
  const auto& kinds = runtime::AllScheduleKinds();
  options.schedule.kind = kinds[static_cast<std::size_t>(
      kind_rng.UniformInt(0, static_cast<std::int64_t>(kinds.size()) - 1))];
  options.schedule.warmup = rng.Bernoulli(0.5) ? runtime::WarmupPolicy::kPA
                                               : runtime::WarmupPolicy::kPB;
  // Drawn here to keep the stream; flags every stage of the plan below.
  const bool recompute = rng.Bernoulli(0.3);
  if (rng.Bernoulli(0.2)) {
    options.schedule.warmup_override = static_cast<int>(rng.UniformInt(1, 3));
  }
  options.replication = rng.Bernoulli(0.7) ? runtime::ReplicationMode::kSplitMicroBatch
                                           : runtime::ReplicationMode::kRoundRobin;
  options.enforce_memory_capacity = rng.Bernoulli(0.5);
  options.overlap_allreduce = rng.Bernoulli(0.5);

  // Most seeds exercise arbitrary hand-rolled plans; every seventh runs the
  // real planner so its output is differentially validated too.
  planner::ParallelPlan plan;
  bool planned = false;
  if (seed % 7 == 0 && cluster.num_devices() <= 4) {
    try {
      planner::PlannerOptions po;
      po.global_batch_size = options.global_batch_size;
      po.latency.check_memory = false;
      po.keep_alternatives = 0;
      // A search over at most four devices is too small to share out: on
      // the shared pool its cost is mostly worker wake-ups.
      po.num_threads = 1;
      plan = planner::DapplePlanner(model, cluster, po).Plan().plan;
      planned = true;
    } catch (const planner::NoFeasiblePlan&) {
      // Fall through to a random plan; infeasibility is not a fuzz failure.
    }
  }
  if (!planned) plan = RandomPlan(rng, model, cluster);
  for (planner::StagePlan& stage : plan.stages) stage.recompute = recompute;

  return FuzzCase{seed, std::move(model), std::move(cluster), std::move(plan),
                  std::move(options)};
}

std::string FuzzOutcome::Summary() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "fuzz case failed (reproduce with seed " << seed << "):\n";
  if (!report.ok()) os << report.ToString();
  if (!latency_bracketed) {
    os << "  analytic latency " << analytic_latency << " vs simulated makespan "
       << simulated_makespan
       << " outside the tolerance bracket (see check/fuzz.h)\n";
  }
  if (!peak_independent) {
    os << "  DAPPLE peak memory depends on M: " << peak_at_m << " B at M vs " << peak_at_2m
       << " B at 2M\n";
  }
  return os.str();
}

std::string FuzzOutcome::Detail() const {
  std::string line = Format("ok: %d tasks, makespan %.6fs", num_tasks, simulated_makespan);
  if (checked_latency) line += Format(", analytic %.6fs", analytic_latency);
  if (checked_peak) {
    line += Format(", peak %llu B (M-independent)", static_cast<unsigned long long>(peak_at_m));
  }
  return line;
}

void ScheduleFuzz::Tally::Add(const Outcome& out) {
  ++cases;
  latency_checked += out.checked_latency ? 1 : 0;
  peak_checked += out.checked_peak ? 1 : 0;
  CountKind(kind_counts, out.kind);
  if (out.checked_latency && out.simulated_makespan > 0.0 && out.analytic_latency > 0.0) {
    const double over = out.analytic_latency / out.simulated_makespan;
    if (out.num_stages == 1) {
      max_over_single = std::max(max_over_single, over);
    } else if (over > max_over_multi) {
      max_over_multi = over;
      worst_multi_seed = out.seed;
    }
    max_under = std::max(max_under, out.simulated_makespan / out.analytic_latency);
  }
}

std::string ScheduleFuzz::Tally::ToString(std::uint64_t base) const {
  std::string text = CasesOk(cases, "", base) +
                     Format("latency bracket on %ld, peak-vs-M differential on %ld\n",
                            latency_checked, peak_checked) +
                     KindCountsLine(kind_counts);
  if (latency_checked > 0) {
    text += Format("max analytic/sim: %.4f (single-stage), %.4f (multi-stage, seed %llu); "
                   "max sim/analytic: %.4f\n",
                   max_over_single, max_over_multi,
                   static_cast<unsigned long long>(worst_multi_seed), max_under);
  }
  return text;
}

std::string MemoryCapFuzzCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " model=" << model.num_layers() << "L/pmb"
     << model.profile_micro_batch() << " cluster=" << cluster.name() << "("
     << cluster.num_devices() << ") gbs=" << global_batch_size << " "
     << runtime::ToString(kind) << " cap=" << FormatBytes(memory_cap)
     << " recompute=" << planner::ToString(recompute);
  return os.str();
}

MemoryCapFuzzCase MemoryCapFuzz::Make(std::uint64_t seed) {
  // The memory-cap mode owns its own salted stream (same rationale as the
  // fault stream): draws added here can never shift the schedule/fault
  // streams and silently rewrite their pinned regression seeds.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x589965cc75374cc3ull);
  model::ModelProfile model = RandomModel(rng);
  // Small clusters only: every seed runs the real planner (twice — once to
  // scale the cap, once under it), and the DP search is exponential in
  // device count.
  topo::Cluster cluster = [&] {
    switch (rng.UniformInt(0, 2)) {
      case 0: return topo::MakeConfigB(static_cast<int>(rng.UniformInt(2, 4)));
      case 1: return topo::MakeConfigC(static_cast<int>(rng.UniformInt(2, 4)));
      default:
        return topo::Cluster("fuzz-2x2", 2, 2, topo::DeviceSpec{},
                             topo::InterconnectSpec{});
    }
  }();
  const long gbs = rng.UniformInt(1, 6) * 4 * model.profile_micro_batch();
  const auto& kinds = runtime::AllScheduleKinds();
  const runtime::ScheduleKind kind = kinds[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(kinds.size()) - 1))];
  const planner::RecomputePolicy policy = rng.Bernoulli(0.7)
                                              ? planner::RecomputePolicy::kAuto
                                              : planner::RecomputePolicy::kOff;
  const double factor = rng.Uniform(0.25, 1.3);

  // Scale the cap off the uncapped plan's family peak so the draw lands on
  // both sides of feasibility; fall back to the device memory if even the
  // uncapped search is structurally infeasible (the capped run will then
  // throw the same way, which is a valid outcome).
  Bytes reference_peak = cluster.device().memory;
  try {
    planner::PlannerOptions po;
    po.global_batch_size = gbs;
    po.latency.check_memory = false;
    po.latency.schedule_kind = kind;
    po.keep_alternatives = 0;
    po.num_threads = 1;
    const planner::PlanResult uncapped =
        planner::DapplePlanner(model, cluster, po).Plan();
    if (uncapped.estimate.max_peak_memory > 0) {
      reference_peak = uncapped.estimate.max_peak_memory;
    }
  } catch (const planner::NoFeasiblePlan&) {
  }
  const Bytes cap =
      std::max<Bytes>(1, static_cast<Bytes>(factor * static_cast<double>(reference_peak)));
  return MemoryCapFuzzCase{seed, std::move(model), std::move(cluster),
                           kind, gbs,              cap,
                           policy};
}

std::string MemoryCapFuzzOutcome::Summary() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "memory-cap fuzz case failed (reproduce with seed " << seed << "):\n"
     << report.ToString();
  return os.str();
}

std::string MemoryCapFuzzOutcome::Detail() const {
  if (!planned) return "ok: declared infeasible (" + infeasible_reason + ")";
  return Format("ok: fits cap %s (analytic peak %s, simulated peak %s, %d stages recompute)",
                FormatBytes(memory_cap).c_str(), FormatBytes(analytic_peak).c_str(),
                FormatBytes(simulated_peak).c_str(), recompute_stages);
}

void MemoryCapFuzz::Tally::Add(const Outcome& out) {
  ++cases;
  planned += out.planned ? 1 : 0;
  infeasible += out.planned ? 0 : 1;
  with_recompute += out.recompute_stages > 0 ? 1 : 0;
  CountKind(kind_counts, out.kind);
}

std::string MemoryCapFuzz::Tally::ToString(std::uint64_t base) const {
  return CasesOk(cases, "memory-cap ", base) +
         Format("%ld planned fit, %ld declared infeasible, %ld used recompute, 0 OOM\n",
                planned, infeasible, with_recompute) +
         KindCountsLine(kind_counts);
}

MemoryCapFuzzOutcome MemoryCapFuzz::Run(const MemoryCapFuzzCase& c) {
  MemoryCapFuzzOutcome out;
  out.seed = c.seed;
  out.kind = c.kind;
  out.memory_cap = c.memory_cap;

  planner::PlannerOptions po;
  po.global_batch_size = c.global_batch_size;
  po.recompute = c.recompute;
  po.latency.memory_cap = c.memory_cap;
  po.latency.schedule_kind = c.kind;
  po.keep_alternatives = 0;
  po.num_threads = 1;

  planner::PlanResult planned;
  try {
    planned = planner::DapplePlanner(c.model, c.cluster, po).Plan();
  } catch (const planner::NoFeasiblePlan& e) {
    // Declared infeasible: the contract allows refusal, never an OOMing
    // plan.
    out.infeasible_reason = e.what();
    return out;
  }
  out.planned = true;
  out.analytic_peak = planned.estimate.max_peak_memory;
  for (const planner::StagePlan& s : planned.plan.stages) {
    out.recompute_stages += s.recompute ? 1 : 0;
  }
  if (out.analytic_peak > c.memory_cap) {
    out.report.violations.push_back(
        {"planner-cap", "planner accepted a plan whose analytic peak " +
                            FormatBytes(out.analytic_peak) + " exceeds the cap " +
                            FormatBytes(c.memory_cap)});
  }

  const runtime::BuildOptions bo = runtime::BuildOptionsFor(po);
  try {
    runtime::GraphBuilder builder(c.model, c.cluster, planned.plan, bo);
    const runtime::BuiltPipeline built = builder.Build();
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    out.simulated_peak = result.MaxPeakMemory();

    ScheduleValidator validator(planned.plan, bo);
    ValidationReport report = validator.Validate(built, result);
    for (Violation& v : report.violations) {
      out.report.violations.push_back(std::move(v));
    }
    if (result.AnyOom()) {
      out.report.violations.push_back(
          {"memory-cap-oom", "simulated execution OOMed under the declared cap " +
                                 FormatBytes(c.memory_cap) + " (simulated peak " +
                                 FormatBytes(out.simulated_peak) + ")"});
    }
  } catch (const std::exception& e) {
    out.report.violations.push_back(
        {"exception", std::string("capped build/simulate threw: ") + e.what()});
  }
  return out;
}

std::string FaultFuzzCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " model=" << model.num_layers() << "L cluster=" << cluster.name()
     << "(" << cluster.num_devices() << ") plan=" << plan.ToString() << " gbs="
     << options.build.global_batch_size << " policy=" << fault::ToString(policy)
     << " horizon=" << options.horizon << " faults={";
  for (std::size_t i = 0; i < script.events.size(); ++i) {
    os << (i ? "; " : "") << script.events[i].ToString();
  }
  os << "}";
  return os.str();
}

FaultFuzzCase FaultFuzz::Make(std::uint64_t seed) {
  // Decorrelated from MakeFuzzCase's stream: same mixing, different salt.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x8e2f9d4a7c15b36dull);
  model::ModelProfile model = RandomModel(rng);
  topo::Cluster cluster = RandomCluster(rng);

  fault::FaultOptions options;
  options.build.global_batch_size = rng.UniformInt(1, 6) * 4 * model.profile_micro_batch();
  // Side-stream kind draw; the legacy Bernoulli is consumed to keep the
  // main stream — and with it every pinned fault script — unchanged (see
  // MakeFuzzCase and the script stream note below).
  (void)rng.Bernoulli(0.7);
  Rng fault_kind_rng(seed * 0x9e3779b97f4a7c15ull + 0xe7037ed1a0b428dbull);
  const auto& fault_kinds = runtime::AllScheduleKinds();
  options.build.schedule.kind = fault_kinds[static_cast<std::size_t>(
      fault_kind_rng.UniformInt(0, static_cast<std::int64_t>(fault_kinds.size()) - 1))];
  // Drawn here to keep the stream; flags every stage of the plan below, and
  // replans then recompute everywhere too, priced as they run.
  const bool recompute = rng.Bernoulli(0.2);
  options.build.enforce_memory_capacity = false;
  options.horizon = rng.Uniform(2.0, 20.0);
  options.max_iterations = 60;
  options.checkpoint_period = static_cast<int>(rng.UniformInt(2, 6));
  options.checkpoint_cost = rng.Uniform(0.0, 0.1);
  options.restore_cost = rng.Uniform(0.1, 1.0);
  options.detect_latency = rng.Uniform(0.0, 0.3);
  options.replan_cost = rng.Uniform(0.1, 1.0);
  options.planner.latency.check_memory = false;
  options.planner.keep_alternatives = 0;
  options.planner.max_stages = 4;

  planner::ParallelPlan plan = RandomPlan(rng, model, cluster);
  if (recompute) {
    for (planner::StagePlan& stage : plan.stages) stage.recompute = true;
    options.planner.recompute = planner::RecomputePolicy::kAll;
  }

  fault::RandomFaultOptions random;
  random.horizon = options.horizon;
  random.max_events = 4;
  // The script draws from its own independently salted stream. Forking the
  // topology rng here would couple the two: any added or removed draw above
  // (a new option, a wider model range) would silently rewrite every pinned
  // fault script. With a separate stream, topology changes leave scripts
  // stable and vice versa — only the targeted-entity validity still ties
  // them together (RandomFaultScript samples within `cluster`).
  Rng script_rng(seed * 0x9e3779b97f4a7c15ull + 0xd1342543de82ef95ull);
  fault::FaultScript script = fault::RandomFaultScript(script_rng.Fork(), cluster, random);

  const auto policy = static_cast<fault::RecoveryPolicy>(seed % 3);
  return FaultFuzzCase{seed,   std::move(model),  std::move(cluster), std::move(plan),
                       std::move(script), policy, std::move(options)};
}

std::string FaultFuzzOutcome::Summary() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "fault fuzz case failed (reproduce with seed " << seed << "):\n" << report.ToString();
  return os.str();
}

std::string FaultFuzzOutcome::Detail() const {
  return Format("ok: %d pipelines validated, %d iterations, %d replans, %d restores",
                pipelines_validated, iterations_completed, replans, restores);
}

void FaultFuzz::Tally::Add(const Outcome& out) {
  ++cases;
  pipelines += out.pipelines_validated;
  replans += out.replans;
  restores += out.restores;
}

std::string FaultFuzz::Tally::ToString(std::uint64_t base) const {
  return CasesOk(cases, "fault ", base) +
         Format("%ld pipelines validated, %ld replans, %ld restores\n", pipelines, replans,
                restores);
}

decltype(fault::FaultOptions::pipeline_observer) ValidatingObserver(std::string prefix,
                                                                   ValidationReport* report,
                                                                   int* validated) {
  return [prefix = std::move(prefix), report, validated](
             const runtime::BuiltPipeline& built, const planner::ParallelPlan& plan,
             const topo::Cluster&) {
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    const std::string where = "[plan " + plan.ToString() + "] ";
    ValidationReport found = ScheduleValidator(plan, built.options).Validate(built, result);
    for (Violation& v : found.violations) {
      v.message = where + v.message;
      report->violations.push_back(std::move(v));
    }
    if (result.AnyOom()) {
      report->violations.push_back({prefix + "-oom", where + "pipeline OOMed"});
    }
    ++*validated;
  };
}

void CheckFaultReport(const fault::FaultReport& r, const std::string& prefix,
                      ValidationReport* report) {
  auto& out = report->violations;
  if (r.iterations_completed < 0 || r.goodput < 0.0) {
    out.push_back({prefix + "-report", "negative progress in the " + prefix + " report"});
  }
  TimeSec previous_end = 0.0;
  for (const fault::TimelineRow& row : r.timeline) {
    if (row.end < row.start) {
      out.push_back({prefix + "-timeline", row.kind + " row runs backwards"});
    }
    if (row.start < previous_end - 1e-9) {
      out.push_back({prefix + "-timeline", row.kind + " row overlaps its predecessor"});
    }
    previous_end = row.end;
  }
  if (r.recovered && r.time_to_recover < 0.0) {
    out.push_back({prefix + "-report", "recovered with a negative time-to-recover"});
  }
}

FaultFuzzOutcome FaultFuzz::Run(const FaultFuzzCase& c) {
  FaultFuzzOutcome out;
  out.seed = c.seed;

  fault::FaultOptions options = c.options;
  // Every pipeline the experiment builds — including checkpoint remaps and
  // elastic replans on degraded clusters — must satisfy the full invariant
  // set when executed fault-free.
  options.pipeline_observer = ValidatingObserver("fault", &out.report, &out.pipelines_validated);
  try {
    const fault::FaultReport report =
        fault::RunFaultExperiment(c.model, c.cluster, c.plan, c.script, c.policy, options);
    out.iterations_completed = report.iterations_completed;
    out.replans = report.replans;
    out.restores = report.restores;
    CheckFaultReport(report, "fault", &out.report);
  } catch (const std::exception& e) {
    out.report.violations.push_back(
        {"exception", std::string("fault experiment threw: ") + e.what()});
  }
  return out;
}

FuzzOutcome ScheduleFuzz::Run(const FuzzCase& c) {
  FuzzOutcome out;
  out.seed = c.seed;
  out.kind = c.options.schedule.kind;
  out.num_stages = c.plan.num_stages();
  try {
    runtime::GraphBuilder builder(c.model, c.cluster, c.plan, c.options);
    const runtime::BuiltPipeline built = builder.Build();
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    out.num_tasks = built.graph.num_tasks();
    out.simulated_makespan = result.makespan;

    ScheduleValidator validator(c.plan, c.options);
    out.report = validator.Validate(built, result);

    // Differential 1: the analytic estimator models the split-mode DAPPLE
    // schedule with policy warmup depths; on that family its latency must
    // bracket the simulated makespan.
    if (c.options.schedule.kind == runtime::ScheduleKind::kDapple &&
        c.options.replication == runtime::ReplicationMode::kSplitMicroBatch &&
        c.options.schedule.warmup_override == 0) {
      planner::LatencyOptions lo;
      lo.check_memory = false;
      lo.overlap_allreduce = c.options.overlap_allreduce;
      const planner::LatencyEstimator estimator(c.model, c.cluster, lo);
      const planner::PlanEstimate e = estimator.Estimate(c.plan, c.options.global_batch_size);
      out.checked_latency = true;
      out.analytic_latency = e.latency;
      const double over = c.plan.num_stages() == 1 ? kAnalyticOverSimTolerance
                                                   : kAnalyticOverSim;
      out.latency_bracketed = e.latency <= result.makespan * over + 1e-12 &&
                              result.makespan <= e.latency * kSimOverAnalytic + 1e-12;
    }

    // Differential 2: with an early-backward schedule (DAPPLE, and its 2BP
    // split, whose extra stash is one transient slot regardless of M), peak
    // pool memory is O(K), not O(M) — doubling the micro-batch count at a
    // fixed micro-batch size must leave every peak unchanged. Only
    // meaningful when no warmup depth is clamped by M itself (then K would
    // legitimately grow with M).
    const int max_warmup = built.warmup_depths.empty()
                               ? 0
                               : *std::max_element(built.warmup_depths.begin(),
                                                   built.warmup_depths.end());
    if ((c.options.schedule.kind == runtime::ScheduleKind::kDapple ||
         c.options.schedule.kind == runtime::ScheduleKind::kDappleSplitBw) &&
        built.num_micro_batches >= 2 && max_warmup < built.num_micro_batches) {
      runtime::BuildOptions doubled = c.options;
      doubled.micro_batch_size = built.micro_batch_size;
      doubled.global_batch_size = static_cast<long>(built.micro_batch_size) *
                                  built.num_micro_batches * 2;
      const runtime::BuiltPipeline built2 =
          runtime::GraphBuilder(c.model, c.cluster, c.plan, doubled).Build();
      const sim::SimResult result2 = sim::Engine::Run(built2.graph, built2.engine_options);
      out.checked_peak = true;
      out.peak_at_m = result.MaxPeakMemory();
      out.peak_at_2m = result2.MaxPeakMemory();
      out.peak_independent = out.peak_at_m == out.peak_at_2m;
    }
  } catch (const std::exception& e) {
    out.report.violations.push_back(
        {"exception", std::string("build/simulate threw: ") + e.what()});
  }
  return out;
}

}  // namespace dapple::check
