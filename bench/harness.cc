#include "harness.h"

#include <time.h>

#include <cstdio>

#include "common/thread_pool.h"

namespace dapple::bench {

EvalRow Evaluate(const model::ModelProfile& model, const topo::Cluster& cluster,
                 long global_batch_size) {
  EvalRow row;
  row.model = model.name();
  row.config = cluster.name();
  row.global_batch_size = global_batch_size;
  Session session(model, cluster);
  row.planned = session.Plan(global_batch_size);
  row.report = session.Run(row.planned.plan, global_batch_size);
  row.dp_no_overlap = planner::EstimateDataParallel(
      model, cluster, global_batch_size, planner::DataParallelVariant::kNoOverlap);
  row.dp_overlap = planner::EstimateDataParallel(
      model, cluster, global_batch_size, planner::DataParallelVariant::kOverlap);
  return row;
}

std::vector<EvalRow> EvaluateBatch(const std::vector<EvalSpec>& specs, int sim_threads) {
  ThreadPool pool(static_cast<std::size_t>(sim_threads));
  return pool.Map<EvalRow>(specs.size(), [&](std::size_t i) {
    const EvalSpec& s = specs[i];
    return Evaluate(*s.model, *s.cluster, s.global_batch_size);
  });
}

topo::Cluster SixteenDeviceConfig(char config) {
  return config == 'A' || config == 'a' ? topo::MakeConfigA(2)
                                        : topo::MakeConfig(config, 16);
}

void PrintHeader(const std::string& title, const std::string& paper_anchor) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_anchor.c_str());
  std::printf("================================================================\n");
}

void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-46s paper: %-14s measured: %s\n", metric.c_str(), paper.c_str(),
              measured.c_str());
}

double TimeWarmedPasses(int reps, const std::function<void()>& pass) {
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  };
  pass();  // untimed warmup
  const double t0 = thread_seconds();
  for (int rep = 0; rep < reps; ++rep) pass();
  return thread_seconds() - t0;
}

}  // namespace dapple::bench
