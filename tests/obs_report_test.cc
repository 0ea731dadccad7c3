// Unit tests for the iteration-report observability layer, pinned on the
// paper's Fig. 3 worked example: two single-device stages, M = 4, DAPPLE
// early-backward schedule. Small enough that every reported quantity is
// checkable by hand from the schedule diagram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/recovery.h"
#include "fault/script.h"
#include "model/zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "planner/dp_planner.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple {
namespace {

struct Fig3 {
  model::ModelProfile model = model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000);
  topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  runtime::BuildOptions options;

  Fig3() {
    plan.model = model.name();
    plan.stages.push_back({0, 2, topo::DeviceSet::Range(0, 1)});
    plan.stages.push_back({2, 4, topo::DeviceSet::Range(1, 1)});
    options.global_batch_size = 4;  // micro-batch size 1 => M = 4
    options.schedule.kind = runtime::ScheduleKind::kDapple;
  }

  obs::IterationReport Report() const {
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(model, cluster, plan, options).Build();
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    return obs::BuildIterationReport(built, result);
  }
};

TEST(IterationReport, Fig3ShapeAndBatching) {
  const obs::IterationReport r = Fig3().Report();
  EXPECT_EQ(r.schedule, "DAPPLE");
  EXPECT_EQ(r.num_stages, 2);
  EXPECT_EQ(r.num_devices, 2);
  EXPECT_EQ(r.micro_batch_size, 1);
  EXPECT_EQ(r.num_micro_batches, 4);
  EXPECT_FALSE(r.recompute);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_NEAR(r.throughput, 4.0 / r.makespan, 1e-9);
}

TEST(IterationReport, Fig3HandComputedBusyTimes) {
  const obs::IterationReport r = Fig3().Report();
  ASSERT_EQ(r.devices.size(), 2u);
  for (const obs::DeviceReport& d : r.devices) {
    // Each stage holds 2 uniform layers: forward 2 x 2 ms, backward
    // 2 x 4 ms, times M = 4 micro-batches.
    EXPECT_NEAR(d.forward_busy, 4 * 0.004, 1e-9) << "device " << d.device;
    EXPECT_NEAR(d.backward_busy, 4 * 0.008, 1e-9) << "device " << d.device;
    // 4 FW + 4 BW + 1 Apply.
    EXPECT_EQ(d.tasks_executed, 9);
    EXPECT_GT(d.apply_busy, 0.0);
    // compute_busy covers exactly FW + BW + Apply here (no recompute).
    EXPECT_NEAR(d.compute_busy, d.forward_busy + d.backward_busy + d.apply_busy, 1e-9);
    EXPECT_NEAR(d.utilization, d.compute_busy / r.makespan, 1e-12);
    EXPECT_NEAR(d.bubble_ratio, 1.0 - d.utilization, 1e-12);
  }
  // Identical stages => identical bubble ratios, and the iteration-level
  // fraction is their mean.
  EXPECT_NEAR(r.devices[0].bubble_ratio, r.devices[1].bubble_ratio, 1e-9);
  EXPECT_NEAR(r.bubble_fraction,
              (r.devices[0].bubble_ratio + r.devices[1].bubble_ratio) / 2, 1e-12);
  // Paper formula 1 idealization: bubble ~ (S-1)/(M+S-1) = 1/5. Transfers
  // and the weight update push the measured value a little above it.
  EXPECT_GT(r.bubble_fraction, 0.2 - 1e-9);
  EXPECT_LT(r.bubble_fraction, 0.35);
  // All-device split: 2 devices x (16 + 32) ms of FW/BW compute.
  EXPECT_NEAR(r.split.compute, 2 * (0.016 + 0.032), 1e-9);
  EXPECT_EQ(r.split.allreduce, 0.0);  // single-replica stages
  EXPECT_GT(r.split.transfer, 0.0);
}

TEST(IterationReport, Fig3PhaseSplit) {
  const obs::IterationReport r = Fig3().Report();
  // Warmup ends when stage 1's first backward starts: one stage-0 forward,
  // one cross-stage transfer, one stage-1 forward.
  EXPECT_GT(r.phases.warmup_end, 0.004 + 0.004);
  EXPECT_LT(r.phases.warmup_end, r.phases.steady_end);
  EXPECT_NEAR(r.phases.warmup + r.phases.steady + r.phases.drain, r.makespan, 1e-12);
  EXPECT_NEAR(r.phases.warmup, r.phases.warmup_end, 1e-12);
  EXPECT_GT(r.phases.drain, 0.0);  // stage-0 backward tail + weight update
}

TEST(IterationReport, Fig3StagesAndWarmupDepths) {
  const obs::IterationReport r = Fig3().Report();
  ASSERT_EQ(r.stages.size(), 2u);
  // Policy PA: K_i = min(S - i, M) => K_0 = 2, K_1 = 1.
  EXPECT_EQ(r.stages[0].warmup_depth, 2);
  EXPECT_EQ(r.stages[1].warmup_depth, 1);
  EXPECT_EQ(r.stages[0].devices, std::vector<int>{0});
  EXPECT_EQ(r.stages[1].devices, std::vector<int>{1});
  // Forward activations flow 0 -> 1 only.
  EXPECT_EQ(r.stages[0].inbound_transfer, 0.0);
  EXPECT_GT(r.stages[0].outbound_transfer, 0.0);
  EXPECT_NEAR(r.stages[1].inbound_transfer, r.stages[0].outbound_transfer, 1e-12);
  EXPECT_EQ(r.stages[1].outbound_transfer, 0.0);
  // Deeper warmup stashes more activations: stage 0 peaks higher.
  EXPECT_GT(r.stages[0].peak_memory, r.stages[1].peak_memory);
}

TEST(IterationReport, Fig3LinksCarryTheActivationVolume) {
  const obs::IterationReport r = Fig3().Report();
  ASSERT_EQ(r.links.size(), 2u);
  const auto txf = std::find_if(r.links.begin(), r.links.end(),
                                [](const auto& l) { return l.name == "txf s0->s1"; });
  const auto txb = std::find_if(r.links.begin(), r.links.end(),
                                [](const auto& l) { return l.name == "txb s1->s0"; });
  ASSERT_NE(txf, r.links.end());
  ASSERT_NE(txb, r.links.end());
  // One 1 MiB activation (and one gradient) per micro-batch per direction.
  EXPECT_EQ(txf->transfers, 4);
  EXPECT_EQ(txb->transfers, 4);
  EXPECT_EQ(txf->bytes, 4 * 1_MiB);
  EXPECT_EQ(txb->bytes, 4 * 1_MiB);
  EXPECT_GT(txf->occupancy, 0.0);
  EXPECT_LT(txf->occupancy, 1.0);
}

TEST(IterationReport, Fig3JsonIsDeterministic) {
  const Fig3 fig;
  const std::string a = obs::ToJson(fig.Report());
  const std::string b = obs::ToJson(fig.Report());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"bubble_fraction\""), std::string::npos);
  EXPECT_NE(a.find("\"txf s0->s1\""), std::string::npos);
  const std::string text = obs::ToText(fig.Report());
  EXPECT_NE(text.find("bubble fraction"), std::string::npos);
}

TEST(IterationReport, PeakVsMCurveIsFlatForDapple) {
  const Fig3 fig;
  const auto curve =
      obs::PeakVsMCurve(fig.model, fig.cluster, fig.plan, fig.options, {4, 8, 16});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].num_micro_batches, 4);
  EXPECT_EQ(curve[2].num_micro_batches, 16);
  // §III: peak activation memory is O(K), not O(M).
  EXPECT_EQ(curve[0].max_peak_memory, curve[1].max_peak_memory);
  EXPECT_EQ(curve[1].max_peak_memory, curve[2].max_peak_memory);
}

TEST(IterationReport, PeakVsMCurveGrowsForGPipe) {
  Fig3 fig;
  fig.options.schedule.kind = runtime::ScheduleKind::kGPipe;
  fig.options.enforce_memory_capacity = false;
  const auto curve =
      obs::PeakVsMCurve(fig.model, fig.cluster, fig.plan, fig.options, {4, 16});
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_LT(curve[0].max_peak_memory, curve[1].max_peak_memory);
}

TEST(IterationReport, PeakVsMPrefilterNeverChangesTheCurve) {
  // The curve simulates only one point per distinct stash discipline, which
  // may skip simulations but never change a peak: every point must equal a
  // direct build-and-simulate at that M. DAPPLE's warmup saturates, so its
  // flat tail dedups; GPipe stashes all M, so nothing dedups.
  auto& metrics = obs::MetricsRegistry::Global();
  auto expect_direct_peaks = [](const Fig3& fig, const std::vector<int>& counts,
                                int threads) {
    const auto curve =
        obs::PeakVsMCurve(fig.model, fig.cluster, fig.plan, fig.options, counts, threads);
    ASSERT_EQ(curve.size(), counts.size());
    runtime::BuildOptions point = fig.options;
    point.micro_batch_size =
        runtime::GraphBuilder(fig.model, fig.cluster, fig.plan, fig.options).Build()
            .micro_batch_size;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      point.global_batch_size = static_cast<long>(point.micro_batch_size) * counts[i];
      const runtime::BuiltPipeline built =
          runtime::GraphBuilder(fig.model, fig.cluster, fig.plan, point).Build();
      EXPECT_EQ(curve[i].num_micro_batches, counts[i]);
      EXPECT_EQ(curve[i].max_peak_memory,
                sim::Engine::Run(built.graph, built.engine_options).MaxPeakMemory())
          << "M=" << counts[i] << " threads=" << threads;
    }
  };

  const Fig3 dapple_fig;
  for (const int threads : {1, 8}) {
    const std::int64_t skipped0 = metrics.counter("report.peak_vs_m.skipped").value();
    expect_direct_peaks(dapple_fig, {4, 8, 16, 32}, threads);
    // Non-vacuity: the saturated DAPPLE tail must actually have been skipped.
    EXPECT_GT(metrics.counter("report.peak_vs_m.skipped").value(), skipped0);
  }

  Fig3 gpipe_fig;
  gpipe_fig.options.schedule.kind = runtime::ScheduleKind::kGPipe;
  gpipe_fig.options.enforce_memory_capacity = false;
  for (const int threads : {1, 8}) {
    const std::int64_t skipped0 = metrics.counter("report.peak_vs_m.skipped").value();
    expect_direct_peaks(gpipe_fig, {4, 8, 16}, threads);
    // GPipe's stash discipline grows with M: no two points may dedup.
    EXPECT_EQ(metrics.counter("report.peak_vs_m.skipped").value(), skipped0);
  }
}

// The end-to-end benchmark (benchmark/stats.cc) and bench_scenario read
// these registry names, and a lookup creates a missing name at zero, so a
// renamed writer would silently zero a per-layer metric. Each name is
// spelled here exactly as its reader spells it, next to the one action
// that must grow it.
TEST(MetricsRegistry, BenchmarkNamesGrowWithTheirWriters) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::vector<std::string> plan_counters = {
      "planner.candidates_evaluated", "planner.cache.hits", "planner.cache.misses",
      "planner.estimator_calls"};
  const std::vector<std::string> plan_histograms = {"planner.parallel.wall_seconds",
                                                    "planner.cache.compute_seconds"};
  auto counters = [&](const std::vector<std::string>& names) {
    std::vector<std::int64_t> values;
    for (const std::string& name : names) values.push_back(registry.counter(name).value());
    return values;
  };
  auto histogram_sums = [&](const std::vector<std::string>& names) {
    std::vector<double> sums;
    for (const std::string& name : names) sums.push_back(registry.histogram(name).sum());
    return sums;
  };
  auto expect_grew = [](const std::vector<std::string>& names, const auto& before,
                        const auto& after) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_GT(after[i], before[i]) << names[i];
    }
  };

  // One serial plan.
  const std::vector<std::int64_t> counters0 = counters(plan_counters);
  const std::vector<double> sums0 = histogram_sums(plan_histograms);
  planner::PlannerOptions po;
  po.global_batch_size = 64;
  po.num_threads = 1;
  (void)planner::DapplePlanner(model::ModelByName("GNMT-16"), topo::MakeConfigA(1), po).Plan();
  expect_grew(plan_counters, counters0, counters(plan_counters));
  expect_grew(plan_histograms, sums0, histogram_sums(plan_histograms));

  // One simulation.
  const std::vector<std::string> sim_counters = {"sim.tasks_executed"};
  const std::vector<std::int64_t> sim0 = counters(sim_counters);
  (void)Fig3().Report();
  expect_grew(sim_counters, sim0, counters(sim_counters));

  // One elastic replan experiment. The third event leaves the cluster the
  // first one left, so its replan is a memo hit.
  const std::vector<std::string> fault_counters = {"fault.replan.runs",
                                                   "fault.replan.memo_hits"};
  const std::vector<std::string> fault_histograms = {"fault.replan.wall_seconds"};
  const std::vector<std::int64_t> fault0 = counters(fault_counters);
  const std::vector<double> fault_sums0 = histogram_sums(fault_histograms);
  const model::ModelProfile m = model::MakeUniformSynthetic(8, 0.002, 0.004, 1_MiB, 1'000'000);
  planner::ParallelPlan plan;
  plan.model = m.name();
  plan.stages.push_back({0, 4, topo::DeviceSet::Range(0, 2)});
  plan.stages.push_back({4, 8, topo::DeviceSet::Range(2, 2)});
  fault::FaultOptions options;
  options.build.global_batch_size = 8;
  options.planner.keep_alternatives = 0;
  options.horizon = 10.0;
  (void)fault::RunFaultExperiment(m, topo::MakeConfigB(4), plan,
                                  fault::ParseFaultScript("crash device=1 at=2\n"
                                                          "rejoin device=1 at=4\n"
                                                          "crash device=1 at=6\n"),
                                  fault::RecoveryPolicy::kElasticUp, options);
  expect_grew(fault_counters, fault0, counters(fault_counters));
  expect_grew(fault_histograms, fault_sums0, histogram_sums(fault_histograms));
}

// Every JSON writer (reports, metrics, Chrome traces) escapes strings
// through JsonWriter::Escape.
TEST(JsonWriter, EscapesQuotesBackslashesNewlinesAndControlBytes) {
  EXPECT_EQ(obs::JsonWriter::Escape("weird \"name\"\nline"), "weird \\\"name\\\"\\nline");
  EXPECT_EQ(obs::JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonWriter::Escape("a\tb"), "a\\tb");
  EXPECT_EQ(obs::JsonWriter::Escape(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(obs::JsonWriter::Escape("\x01\r\x1f"), "\\u0001\\u000d\\u001f");
  // DEL and bytes above 0x7f (UTF-8) pass through unchanged.
  EXPECT_EQ(obs::JsonWriter::Escape("\x7f caf\xc3\xa9"), "\x7f caf\xc3\xa9");
  EXPECT_EQ(obs::JsonWriter::Escape(""), "");
}

}  // namespace
}  // namespace dapple
