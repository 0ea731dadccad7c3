// Memory-cap frontier: what a per-device memory cap costs, and what
// recompute buys back. For GNMT-16 and AmoebaNet-36 on the paper's
// 16-device Config-A cluster, binary-search the tightest cap each policy
// can satisfy (plain planning vs --recompute=auto), then sweep a ladder of
// caps from just under the auto floor up to the uncapped peak and report,
// per level: whether each policy fits, how many stages the fit search
// checkpointed, and the simulated latency penalty against the uncapped
// plan. Every emitted plan is re-simulated under its cap with pool
// enforcement on — an OOM anywhere is a hard failure.
//
// Exits non-zero unless, for every model, auto-recompute fits at least one
// cap level where plain planning cannot (the tentpole's headline claim).
//
//   bench_memory_cap [--quick]   --quick: GNMT-16 only, coarser search.
#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"

using namespace dapple;

namespace {

struct PlanAttempt {
  bool fits = false;
  planner::PlanResult result;
};

PlanAttempt TryPlan(const model::ModelProfile& m, const topo::Cluster& cluster,
                    long gbs, Bytes cap, planner::RecomputePolicy policy) {
  planner::PlannerOptions po;
  po.global_batch_size = gbs;
  po.recompute = policy;
  po.latency.memory_cap = cap;
  po.keep_alternatives = 0;
  PlanAttempt attempt;
  try {
    attempt.result = planner::DapplePlanner(m, cluster, po).Plan();
    attempt.fits = true;
  } catch (const Error&) {
  }
  return attempt;
}

/// Simulates `plan` under `cap` with pool enforcement on. Returns the
/// makespan; flips `oom` if any pool overflowed (per-stage recompute flags
/// ride the plan itself).
TimeSec Simulate(const model::ModelProfile& m, const topo::Cluster& cluster,
                 const planner::ParallelPlan& plan, long gbs, Bytes cap, bool* oom) {
  runtime::BuildOptions o;
  o.global_batch_size = gbs;
  o.memory_cap = cap;
  o.enforce_memory_capacity = true;
  const runtime::BuiltPipeline built =
      runtime::GraphBuilder(m, cluster, plan, o).Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  if (result.AnyOom()) *oom = true;
  return result.makespan;
}

/// Smallest cap (to `resolution` precision) at which planning under
/// `policy` succeeds. Feasibility is monotone in the cap — a larger cap
/// only admits more placements — so plain bisection applies.
Bytes FeasibilityFloor(const model::ModelProfile& m, const topo::Cluster& cluster,
                       long gbs, Bytes lo, Bytes hi, Bytes resolution,
                       planner::RecomputePolicy policy) {
  while (hi - lo > resolution) {
    const Bytes mid = lo + (hi - lo) / 2;
    if (TryPlan(m, cluster, gbs, mid, policy).fits) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

bool RunModel(const model::ModelProfile& m, const topo::Cluster& cluster, long gbs,
              bool quick) {
  const planner::PlanResult uncapped =
      planner::DapplePlanner(m, cluster,
                             [&] {
                               planner::PlannerOptions po;
                               po.global_batch_size = gbs;
                               po.keep_alternatives = 0;
                               return po;
                             }())
          .Plan();
  const Bytes uncapped_peak = uncapped.estimate.max_peak_memory;
  bool oom = false;
  const TimeSec uncapped_latency =
      Simulate(m, cluster, uncapped.plan, gbs, 0, &oom);

  std::printf("\n%s (GBS %ld, %d devices): uncapped peak %s, latency %s\n",
              m.name().c_str(), gbs, cluster.num_devices(),
              FormatBytes(uncapped_peak).c_str(), FormatTime(uncapped_latency).c_str());

  // Bisection resolution relative to the model's own peak: fine enough
  // that the floors separate when recompute genuinely extends the
  // frontier, coarse enough to bound the planner-run count.
  const Bytes resolution = std::max<Bytes>(1, uncapped_peak / (quick ? 32 : 128));
  // The caps worth probing live between "even all-recompute cannot fit"
  // and "fits without trying"; half the checkpointed peak is a safe lower
  // bracket for the bisection.
  const Bytes floor_auto =
      FeasibilityFloor(m, cluster, gbs, uncapped_peak / 8, uncapped_peak, resolution,
                       planner::RecomputePolicy::kAuto);
  const Bytes floor_off =
      FeasibilityFloor(m, cluster, gbs, floor_auto / 2, uncapped_peak, resolution,
                       planner::RecomputePolicy::kOff);
  std::printf("tightest satisfiable cap: %s plain, %s with recompute=auto\n",
              FormatBytes(floor_off).c_str(), FormatBytes(floor_auto).c_str());
  bench::PrintComparison(m.name() + "/cap-floor",
                         "recompute extends the feasible frontier (paper §III-C)",
                         "plain " + FormatBytes(floor_off) + " -> auto " +
                             FormatBytes(floor_auto));

  // Ladder from just above the auto floor to the uncapped peak; the levels
  // between the two floors are where recompute is the difference between
  // planning and refusing.
  std::vector<Bytes> caps;
  for (double f : {1.0, 0.85, 0.7, 0.55, 0.4, 0.25, 0.1, 0.0}) {
    caps.push_back(floor_auto + static_cast<Bytes>(
                                    f * static_cast<double>(uncapped_peak - floor_auto)));
  }

  AsciiTable table({"Cap", "Plain", "Auto", "Recompute", "Peak", "Latency", "Penalty"});
  bool recompute_extends_frontier = false;
  for (const Bytes cap : caps) {
    const PlanAttempt off = TryPlan(m, cluster, gbs, cap, planner::RecomputePolicy::kOff);
    const PlanAttempt autofit =
        TryPlan(m, cluster, gbs, cap, planner::RecomputePolicy::kAuto);
    std::string recompute = "-", peak = "-", latency = "-", penalty = "-";
    if (autofit.fits) {
      const TimeSec capped_latency =
          Simulate(m, cluster, autofit.result.plan, gbs, cap, &oom);
      recompute = AsciiTable::Int(autofit.result.stats.recompute_stages) + "/" +
                  AsciiTable::Int(static_cast<int>(autofit.result.plan.stages.size()));
      peak = FormatBytes(autofit.result.estimate.max_peak_memory);
      latency = FormatTime(capped_latency);
      penalty = AsciiTable::Num(
                    (capped_latency / uncapped_latency - 1.0) * 100.0, 1) + "%";
    }
    if (off.fits) {
      // The plain plan must hold its own cap too (it never has recompute
      // stages, so only the placement differs).
      Simulate(m, cluster, off.result.plan, gbs, cap, &oom);
    }
    if (!off.fits && autofit.fits) recompute_extends_frontier = true;
    table.AddRow({FormatBytes(cap), off.fits ? "fits" : "-",
                  autofit.fits ? "fits" : "-", recompute, peak, latency, penalty});
  }
  std::printf("%s", table.ToString().c_str());

  if (oom) {
    std::printf("FAIL: a planner-approved plan OOMed under its own cap\n");
    return false;
  }
  if (!recompute_extends_frontier) {
    std::printf("FAIL: no cap level where auto-recompute fits but plain planning "
                "cannot (floors: plain %s, auto %s)\n",
                FormatBytes(floor_off).c_str(), FormatBytes(floor_auto).c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::PrintHeader("Memory-cap frontier — planning under a per-device cap",
                     "recompute as a planner knob; OOM-free guarantee (§III-C)");

  const topo::Cluster cluster = bench::SixteenDeviceConfig('A');
  bool ok = RunModel(model::ModelByName("GNMT-16"), cluster,
                     16 * model::ModelByName("GNMT-16").profile_micro_batch(), quick);
  if (!quick) {
    ok = RunModel(model::ModelByName("AmoebaNet-36"), cluster,
                  64 * model::ModelByName("AmoebaNet-36").profile_micro_batch(), quick) &&
         ok;
  }
  std::printf("\nReading the frontier: between the two floors the fit search turns\n"
              "checkpointing on stage-by-stage (cheapest latency penalty first), so\n"
              "a declared cap is either satisfied end to end or refused outright —\n"
              "never accepted and then OOMed.\n");
  return ok ? 0 : 1;
}
