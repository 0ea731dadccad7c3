// Long-horizon elastic scenarios: surviving churn and sharing a cluster
// (the scenario layer on top of the paper's elasticity argument, §VI).
//
// Two acceptance gates, each enforced with a non-zero exit:
//
//   1. Churn corpus — seeded spot-churn and rolling-maintenance episodes
//      played under sync-stall and elastic-up. Elastic-up replans onto the
//      degraded cluster and cuts back over when preempted devices rejoin,
//      so its mean goodput over the corpus must beat sync-stall's (which
//      halts at the first fail-stop crash).
//
//   2. Cluster sharing — the co-scheduler's greedy + exchange split of a
//      shared server budget across a heterogeneous job mix must drain the
//      whole batch strictly faster than the naive even split.
//
// `--quick` trims the corpus for the perf-smoke CI tier.
#include "harness.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "scenario/coscheduler.h"
#include "scenario/episode.h"
#include "scenario/stream.h"

using namespace dapple;

namespace {

struct PolicyAggregate {
  double mean_goodput = 0.0;
  double mean_utilization = 0.0;
  int preemptions = 0;
  int rejoins = 0;
  int scale_ups = 0;
  int replans = 0;
};

PolicyAggregate Aggregate(const std::vector<scenario::EpisodeReport>& reports) {
  PolicyAggregate agg;
  for (const scenario::EpisodeReport& r : reports) {
    agg.mean_goodput += r.fault.goodput;
    agg.mean_utilization += r.utilization;
    agg.preemptions += r.preemptions;
    agg.rejoins += r.rejoins;
    agg.scale_ups += r.fault.scale_ups;
    agg.replans += r.fault.replans;
  }
  if (!reports.empty()) {
    agg.mean_goodput /= static_cast<double>(reports.size());
    agg.mean_utilization /= static_cast<double>(reports.size());
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::PrintHeader("Long-horizon elastic scenarios — churn survival and cluster sharing",
                     "DAPPLE paper, §VI (planner reuse under cluster changes)");

  int violations = 0;

  // ---- 1. Churn corpus: elastic-up vs sync-stall ----------------------
  const model::ModelProfile m = model::MakeGnmt16();
  const topo::Cluster cluster = topo::MakeConfigB(3);
  planner::PlannerOptions po;
  po.global_batch_size = 64;
  po.keep_alternatives = 0;
  const planner::ParallelPlan plan = planner::DapplePlanner(m, cluster, po).Plan().plan;

  const int seeds = quick ? 3 : 10;
  std::vector<scenario::EpisodeOptions> corpus;
  for (scenario::ChurnModel churn :
       {scenario::ChurnModel::kSpotChurn, scenario::ChurnModel::kRollingMaintenance}) {
    for (int s = 1; s <= seeds; ++s) {
      scenario::EpisodeOptions o;
      o.seed = static_cast<std::uint64_t>(s);
      o.churn = churn;
      o.churn_options.horizon = 30.0;
      o.churn_options.preempt_rate = 0.08;
      o.churn_options.min_outage = 3.0;
      o.churn_options.max_outage = 6.0;
      o.churn_options.rejoin_probability = 1.0;
      o.churn_options.maintenance_period = 10.0;
      o.churn_options.drain_duration = 4.0;
      o.fault.build.global_batch_size = 64;
      o.fault.planner.keep_alternatives = 0;
      // GNMT-16 iterations are ~100 ms on a Config-B slice; size the
      // control-plane costs to match (defaults assume seconds).
      o.fault.checkpoint_period = 10;
      o.fault.checkpoint_cost = 0.02;
      o.fault.restore_cost = 0.25;
      o.fault.detect_latency = 0.1;
      o.fault.replan_cost = 0.25;
      corpus.push_back(o);
    }
  }

  auto run_policy = [&](fault::RecoveryPolicy policy) {
    std::vector<scenario::EpisodeOptions> episodes = corpus;
    for (scenario::EpisodeOptions& o : episodes) o.policy = policy;
    return Aggregate(scenario::RunEpisodeSweep(m, cluster, plan, episodes, /*sim_threads=*/0));
  };

  const PolicyAggregate stall = run_policy(fault::RecoveryPolicy::kSyncStall);
  // Each experiment plans a degraded cluster once and reuses the plan when
  // churn returns to it; the registry deltas show how often that happens.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const std::int64_t memo_hits_before = metrics.counter("fault.replan.memo_hits").value();
  const std::int64_t searches_before = metrics.counter("fault.replan.runs").value();
  const PolicyAggregate up = run_policy(fault::RecoveryPolicy::kElasticUp);
  const std::int64_t memo_hits =
      metrics.counter("fault.replan.memo_hits").value() - memo_hits_before;
  const std::int64_t searches = metrics.counter("fault.replan.runs").value() - searches_before;

  std::printf("\n--- churn corpus: %zu episodes (spot + rolling, GNMT-16 on %s) ---\n",
              corpus.size(), cluster.name().c_str());
  std::printf("  %-12s %14s %12s %9s %8s %9s %8s\n", "policy", "mean goodput",
              "mean util", "preempt", "rejoin", "scale-up", "replan");
  std::printf("  %-12s %12.2f/s %11.1f%% %9d %8d %9d %8d\n", "stall", stall.mean_goodput,
              100.0 * stall.mean_utilization, stall.preemptions, stall.rejoins,
              stall.scale_ups, stall.replans);
  std::printf("  %-12s %12.2f/s %11.1f%% %9d %8d %9d %8d\n", "elastic-up", up.mean_goodput,
              100.0 * up.mean_utilization, up.preemptions, up.rejoins, up.scale_ups,
              up.replans);
  std::printf("  elastic-up replan memo: %lld hits, %lld planner searches (%.0f%% reused)\n",
              static_cast<long long>(memo_hits), static_cast<long long>(searches),
              memo_hits + searches > 0
                  ? 100.0 * static_cast<double>(memo_hits) /
                        static_cast<double>(memo_hits + searches)
                  : 0.0);
  bench::PrintComparison("elastic-up vs stall goodput",
                         "replan beats waiting out faults (§VI)",
                         std::to_string(up.mean_goodput / stall.mean_goodput) + "x");
  if (up.mean_goodput <= stall.mean_goodput) {
    std::fprintf(stderr,
                 "CHURN VIOLATION: elastic-up mean goodput %.3f/s did not beat "
                 "sync-stall %.3f/s over the corpus\n",
                 up.mean_goodput, stall.mean_goodput);
    ++violations;
  }
  if (up.scale_ups <= 0) {
    std::fprintf(stderr,
                 "CHURN VIOLATION: corpus never exercised a scale-up cutover — "
                 "gate is vacuous\n");
    ++violations;
  }

  // ---- 2. Co-scheduler vs naive even split ----------------------------
  const topo::Cluster budget = topo::MakeConfigB(quick ? 5 : 6);
  std::vector<scenario::JobSpec> jobs;
  jobs.push_back(scenario::JobSpec{"gnmt-heavy", model::MakeGnmt16(), 64, 120});
  jobs.push_back(scenario::JobSpec{"gnmt-light", model::MakeGnmt16(), 16, 60});
  jobs.push_back(scenario::JobSpec{"vgg", model::MakeVgg19(), 32, 30});

  scenario::CoScheduleOptions cs;
  cs.sim_threads = 0;
  cs.planner.keep_alternatives = 0;
  const scenario::CoScheduleReport report = scenario::CoSchedule(budget, jobs, cs);

  std::printf("\n--- co-scheduler: %zu jobs on %s ---\n", jobs.size(),
              budget.name().c_str());
  std::printf("  %-12s %8s %8s %12s %12s  %s\n", "job", "servers", "range", "iter time",
              "makespan", "plan");
  for (const scenario::JobAssignment& j : report.jobs) {
    char range[32];
    std::snprintf(range, sizeof(range), "[%d,%d)", j.server_begin,
                  j.server_begin + j.servers);
    std::printf("  %-12s %8d %8s %10.4fs %10.2fs  %s\n", j.name.c_str(), j.servers, range,
                j.iteration_time, j.makespan, j.plan.ToString().c_str());
  }
  std::printf("  aggregate %.2fs vs naive even %.2fs (%d greedy steps, %d exchange "
              "moves, %ld cache hits / %ld misses)\n",
              report.aggregate_makespan, report.naive_even_makespan, report.greedy_steps,
              report.exchange_moves, report.cache_hits, report.cache_misses);
  bench::PrintComparison("co-schedule vs even split",
                         "search beats static partitioning",
                         std::to_string(report.naive_even_makespan /
                                        report.aggregate_makespan) + "x");
  if (!(report.aggregate_makespan < report.naive_even_makespan)) {
    std::fprintf(stderr,
                 "COSCHED VIOLATION: searched split %.4fs is not strictly faster than "
                 "the naive even split %.4fs\n",
                 report.aggregate_makespan, report.naive_even_makespan);
    ++violations;
  }

  if (violations > 0) {
    std::fprintf(stderr, "\n%d gate violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall scenario gates passed\n");
  return 0;
}
