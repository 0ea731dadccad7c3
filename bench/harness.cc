#include "harness.h"

#include <time.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"

namespace dapple::bench {

namespace {

/// Accumulated record of everything the bench printed; flushed to
/// BENCH_<binary>.json at exit when DAPPLE_BENCH_JSON_DIR is set.
struct JsonRecord {
  std::string title;
  std::string anchor;
  struct Comparison {
    std::string metric, paper, measured;
  };
  std::vector<Comparison> comparisons;
  std::vector<EvalRow> rows;
  std::mutex mu;
};

JsonRecord& Record() {
  static JsonRecord* record = new JsonRecord();
  return *record;
}

void WriteBenchJson() {
  const char* dir = std::getenv("DAPPLE_BENCH_JSON_DIR");
  if (!dir || !*dir) return;
  JsonRecord& rec = Record();

  obs::JsonWriter w;
  w.BeginObject();
  w.Field("bench", std::string(program_invocation_short_name));
  w.Field("title", rec.title);
  w.Field("anchor", rec.anchor);
  w.Key("comparisons").BeginArray();
  for (const JsonRecord::Comparison& c : rec.comparisons) {
    w.BeginObject();
    w.Field("metric", c.metric);
    w.Field("paper", c.paper);
    w.Field("measured", c.measured);
    w.EndObject();
  }
  w.EndArray();
  w.Key("rows").BeginArray();
  for (const EvalRow& row : rec.rows) {
    w.BeginObject();
    w.Field("model", row.model);
    w.Field("config", row.config);
    w.Field("global_batch_size", static_cast<std::int64_t>(row.global_batch_size));
    w.Field("plan", row.planned.plan.ToString());
    w.Field("estimated_latency", row.planned.estimate.latency);
    w.Field("simulated_latency", row.report.makespan);
    w.Field("throughput", row.report.throughput);
    w.Field("speedup", row.report.speedup);
    w.Field("dp_no_overlap_time", row.dp_no_overlap.iteration_time);
    w.Field("dp_overlap_time", row.dp_overlap.iteration_time);
    w.Key("report");
    obs::WriteJson(w, row.report);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string path =
      std::string(dir) + "/BENCH_" + program_invocation_short_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench json %s\n", path.c_str());
    return;
  }
  const std::string doc = w.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "bench json written to %s\n", path.c_str());
}

void EnsureExitHookRegistered() {
  static const bool registered = [] {
    std::atexit(WriteBenchJson);
    return true;
  }();
  (void)registered;
}

/// Plan-and-simulate without touching the shared record — EvaluateBatch
/// computes rows concurrently, then records them in spec order.
EvalRow ComputeRow(const model::ModelProfile& model, const topo::Cluster& cluster,
                   long global_batch_size) {
  EvalRow row;
  row.model = model.name();
  row.config = cluster.name();
  row.global_batch_size = global_batch_size;
  Session session(model, cluster);
  row.planned = session.Plan(global_batch_size);
  row.report = session.Run(row.planned.plan, global_batch_size);
  row.report.attach_planner_stats(row.planned.stats);
  row.dp_no_overlap = planner::EstimateDataParallel(
      model, cluster, global_batch_size, planner::DataParallelVariant::kNoOverlap);
  row.dp_overlap = planner::EstimateDataParallel(
      model, cluster, global_batch_size, planner::DataParallelVariant::kOverlap);
  return row;
}

void RecordRow(const EvalRow& row) {
  EnsureExitHookRegistered();
  JsonRecord& rec = Record();
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.rows.push_back(row);
}

}  // namespace

EvalRow Evaluate(const model::ModelProfile& model, const topo::Cluster& cluster,
                 long global_batch_size) {
  EvalRow row = ComputeRow(model, cluster, global_batch_size);
  RecordRow(row);
  return row;
}

std::vector<EvalRow> EvaluateBatch(const std::vector<EvalSpec>& specs, int sim_threads) {
  ThreadPool pool(static_cast<std::size_t>(sim_threads));
  std::vector<EvalRow> rows = pool.Map<EvalRow>(specs.size(), [&](std::size_t i) {
    const EvalSpec& s = specs[i];
    return ComputeRow(*s.model, *s.cluster, s.global_batch_size);
  });
  for (const EvalRow& row : rows) RecordRow(row);
  return rows;
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
  EnsureExitHookRegistered();
  JsonRecord& rec = Record();
  std::lock_guard<std::mutex> lock(rec.mu);
  if (rec.title.empty()) {
    rec.title = title;
    rec.anchor = paper_anchor;
  }
}

void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-46s paper: %-14s measured: %s\n", metric.c_str(), paper.c_str(),
              measured.c_str());
  EnsureExitHookRegistered();
  JsonRecord& rec = Record();
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.comparisons.push_back({metric, paper, measured});
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
