// dapple — command-line front end for the library.
//
//   dapple zoo
//       List the calibrated benchmark models (paper Table II).
//   dapple plan <model> <config A|B|C> <servers> <gbs> [--save FILE]
//              [--memory-cap BYTES] [--recompute=off|all|auto]
//       Run the planner and print (optionally save) the chosen plan. With
//       a per-device memory cap the search rejects placements whose
//       estimated peak exceeds it; --recompute=auto turns checkpointing on
//       stage-by-stage (cheapest first) when nothing fits otherwise.
//   dapple run <model> <config> <servers> <gbs>
//              [--plan FILE] [--schedule dapple|gpipe|dapple-2bp|v-min|v-half] [--recompute]
//              [--gantt] [--trace FILE.json]
//       Execute one iteration on the simulated cluster; optionally render
//       an ASCII Gantt chart or export a chrome://tracing JSON file.
//       --recompute (run and report) flags every stage of the plan for
//       re-computation; the plan's flags are the only recompute setting.
//   dapple report <model> <config> <servers> <gbs>
//              [--plan FILE] [--schedule dapple|gpipe|dapple-2bp|v-min|v-half] [--recompute]
//              [--json FILE] [--peak-vs-m M1,M2,...]
//   dapple report --fig3 [--json FILE]
//       Execute one iteration and print the structured iteration report
//       (bubble ratios, time split, phases, links, memory); --json exports
//       the machine-readable document, --fig3 runs the paper's two-stage
//       example.
//   dapple faults <model> <config> <servers> <gbs>
//              [--plan FILE] [--policy stall|checkpoint|replan|elastic-up|all]
//              [--script FILE] [--script-text "..."] [--seed N]
//              [--horizon T] [--checkpoint-period N]
//              [--json FILE] [--trace FILE.json] [--sim-threads N]
//       Inject a fault script (from a file, inline text, or a seeded random
//       generator) and measure what each recovery policy salvages. The
//       per-policy experiments are independent, so --sim-threads fans them
//       across a worker pool with byte-identical reports at every N.
//   dapple scenario <model> <config> <servers> <gbs>
//              [--jobs N] [--episodes N] [--seed N] [--horizon T]
//              [--churn spot|rolling] [--policy stall|checkpoint|replan|elastic-up|all]
//              [--json FILE] [--trace FILE.json] [--sim-threads N]
//       Play seeded long-horizon churn episodes (spot preemptions with
//       rejoins, or rolling maintenance drains) against each recovery
//       policy and compare what they salvage; with --jobs N > 1 also run
//       the multi-job co-scheduler, splitting the cluster's servers across
//       N concurrent jobs against the naive even split.
//   dapple serve [--stdio] [--socket PATH] [--tcp PORT] [--workers N]
//              [--cache-entries N] [--max-batch N] [--max-connections N]
//       Run the planner as a service: newline-delimited JSON requests in,
//       one response per line out, answered from a fingerprint-keyed LRU
//       plan cache. See src/serve/protocol.h for the request schema.
//
// Every integer argument, flag or positional, is one strict unsigned parse
// of the whole token, and <config> is exactly one letter A, B or C (any
// case); a bad one prints usage and exits 2. A report or trace file that
// cannot be written exits 1.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "dapple/dapple.h"
#include "flags.h"
#include "scenario/coscheduler.h"
#include "scenario/episode.h"
#include "scenario/report.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "sim/chrome_trace.h"

using namespace dapple;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dapple zoo\n"
               "  dapple plan <model> <A|B|C> <servers> <gbs> [--save FILE]\n"
               "              [--memory-cap BYTES] [--recompute=off|all|auto]\n"
               "              [--planner-threads N]  (0 = hardware concurrency,\n"
               "               1 = serial; the plan is identical at every N;\n"
               "               BYTES accepts suffixes: 12GiB, 900MiB, ...)\n"
               "  dapple run  <model> <A|B|C> <servers> <gbs> [--plan FILE]\n"
               "              [--schedule dapple|gpipe|dapple-2bp|v-min|v-half] [--recompute] [--gantt]\n"
               "              [--memory-cap BYTES] [--trace FILE.json]\n"
               "  dapple report <model> <A|B|C> <servers> <gbs> [--plan FILE]\n"
               "              [--schedule dapple|gpipe|dapple-2bp|v-min|v-half] [--recompute]\n"
               "              [--memory-cap BYTES] [--json FILE] [--peak-vs-m M1,M2,...]\n"
               "              [--sim-threads N]\n"
               "  dapple report --fig3 [--json FILE]\n"
               "              (run/report --recompute flags every stage of the\n"
               "               plan, loaded or planned, for re-computation)\n"
               "  dapple faults <model> <A|B|C> <servers> <gbs> [--plan FILE]\n"
               "              [--policy stall|checkpoint|replan|elastic-up|all]\n"
               "              [--script FILE] [--script-text \"...\"] [--seed N]\n"
               "              [--horizon T] [--checkpoint-period N]\n"
               "              [--json FILE] [--trace FILE.json]\n"
               "              [--planner-threads N] [--sim-threads N]\n"
               "              (--sim-threads fans independent simulations over a\n"
               "               worker pool; output is identical at every N)\n"
               "  dapple scenario <model> <A|B|C> <servers> <gbs>\n"
               "              [--jobs N] [--episodes N] [--seed N] [--horizon T]\n"
               "              [--churn spot|rolling]\n"
               "              [--policy stall|checkpoint|replan|elastic-up|all]\n"
               "              [--json FILE] [--trace FILE.json] [--sim-threads N]\n"
               "              (seeded churn episodes per policy; --jobs N > 1 also\n"
               "               co-schedules N jobs under the shared server budget)\n"
               "  dapple serve [--stdio] [--socket PATH] [--tcp PORT]\n"
               "              [--workers N] [--cache-entries N] [--max-batch N]\n"
               "              [--max-connections N]\n"
               "              (newline-delimited JSON requests; responses come\n"
               "               back in request order, byte-identical at every\n"
               "               worker count; --stdio is the default transport)\n");
  return 2;
}

/// The `<model> <A|B|C> <servers> <gbs>` positionals every job subcommand
/// starts with.
struct Job {
  model::ModelProfile model;
  topo::Cluster cluster;
  long gbs = 0;
};

/// Parses the positionals; nullopt (after a diagnostic) when one is missing,
/// the config is not exactly one of A/B/C (any case) or a count is not a
/// positive integer. An unknown model throws.
std::optional<Job> ParseJob(int argc, char** argv) {
  auto positive = [](const char* what, const char* text, auto* value) {
    if (ParseUnsigned(text, value) && *value > 0) return true;
    std::fprintf(stderr, "%s needs a positive integer, got '%s'\n", what, text);
    return false;
  };
  auto config = [](const char* text) {
    if (std::strlen(text) == 1 && std::strchr("AaBbCc", text[0]) != nullptr) return true;
    std::fprintf(stderr, "<config> must be A, B or C, got '%s'\n", text);
    return false;
  };
  int servers = 0;
  long gbs = 0;
  if (argc < 4 || !config(argv[1]) || !positive("<servers>", argv[2], &servers) ||
      !positive("<gbs>", argv[3], &gbs)) {
    return std::nullopt;
  }
  return Job{model::ModelByName(argv[0]), topo::MakeConfig(argv[1][0], servers), gbs};
}

/// The plan `--plan FILE` names or, without one, a fresh plan made under
/// `planner_options`, whose schedule family and memory cap the caller then
/// simulates through runtime::BuildOptionsFor, so a capped run gets a plan
/// that fits (or a refusal) instead of an OOM'd report. `recompute`
/// (`run`/`report --recompute`) flags every stage of it.
planner::ParallelPlan PlanOrLoad(const Job& job, const std::string& plan_path,
                                 const planner::PlannerOptions& planner_options = {},
                                 bool recompute = false) {
  planner::ParallelPlan plan;
  if (!plan_path.empty()) {
    plan = planner::LoadPlan(plan_path);
    plan.Validate(job.model);
  } else {
    plan = Session(job.model, job.cluster).Plan(job.gbs, planner_options).plan;
  }
  if (recompute) {
    for (planner::StagePlan& stage : plan.stages) stage.recompute = true;
  }
  return plan;
}

int CmdZoo() {
  AsciiTable table({"Model", "Layers", "Params", "Optimizer", "Profile batch"});
  for (const model::ModelProfile& m : model::AllBenchmarkModels()) {
    table.AddRow({m.name(), AsciiTable::Int(m.num_layers()),
                  AsciiTable::Num(m.TotalParamCount() / 1e6, 1) + "M",
                  model::ToString(m.optimizer()), AsciiTable::Int(m.profile_micro_batch())});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdPlan(int argc, char** argv) {
  const std::optional<Job> job = ParseJob(argc, argv);
  if (!job) return Usage();
  std::string save_path, v;
  planner::PlannerOptions planner_options;
  FlagParser flags(argc - 4, argv + 4);
  while (!flags.Done()) {
    if (flags.MatchValue("--save", &v)) {
      save_path = v;
    } else if (flags.MatchValue("--memory-cap", &v)) {
      planner_options.latency.memory_cap = ParseBytes(v);
    } else if (flags.MatchPrefix("--recompute=", &v) ||
               flags.MatchValue("--recompute", &v)) {
      planner_options.recompute = planner::ParseRecomputePolicy(v);
    } else if (!flags.MatchUnsigned("--planner-threads", &planner_options.num_threads)) {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();

  const auto planned = Session(job->model, job->cluster).Plan(job->gbs, planner_options);
  std::printf("plan: %s (split %s), estimated latency %s, ACR %.2f\n",
              planned.plan.ToString().c_str(), planned.plan.SplitString().c_str(),
              FormatTime(planned.estimate.latency).c_str(), planned.estimate.acr);
  std::printf(
      "search: %d threads, %ld subproblems, frontier peak %ld, cache %lld/%lld hits (%.0f%%), "
      "%lld rows, %.3fs\n",
      planned.stats.threads, planned.stats.subproblems, planned.stats.frontier_peak,
      static_cast<long long>(planned.stats.cache_hits),
      static_cast<long long>(planned.stats.cache_hits + planned.stats.cache_misses),
      planned.stats.cache_hit_rate() * 100.0,
      static_cast<long long>(planned.stats.cache_misses), planned.stats.wall_seconds);
  if (planned.stats.memory_cap > 0) {
    std::printf("memory cap %s: peak %s (%s), %ld placements rejected, "
                "%d/%d stages recompute (%d fit probes)\n",
                FormatBytes(planned.stats.memory_cap).c_str(),
                FormatBytes(planned.estimate.max_peak_memory).c_str(),
                planned.estimate.max_peak_memory <= planned.stats.memory_cap ? "fits"
                                                                             : "OVER CAP",
                planned.stats.memory_rejected, planned.stats.recompute_stages,
                static_cast<int>(planned.plan.stages.size()), planned.stats.fit_probes);
  }
  std::printf("%s", planned.plan.ToDetailedString().c_str());
  if (!save_path.empty()) {
    planner::SavePlan(save_path, planned.plan);
    std::printf("saved to %s\n", save_path.c_str());
  }
  return 0;
}

/// Writes `json` to `path` and prints "<what> written to <path>": 0 on
/// success, 1 (after a diagnostic, and no such line) when the file cannot be
/// opened, written or closed.
int WriteJsonFile(const std::string& path, const std::string& json, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  const std::optional<Job> job = ParseJob(argc, argv);
  if (!job) return Usage();

  std::string plan_path, trace_path, v;
  planner::PlannerOptions planner_options;
  planner_options.global_batch_size = job->gbs;
  bool recompute = false;
  bool gantt = false;
  FlagParser flags(argc - 4, argv + 4);
  while (!flags.Done()) {
    if (flags.MatchValue("--plan", &v)) {
      plan_path = v;
    } else if (flags.MatchValue("--trace", &v)) {
      trace_path = v;
    } else if (flags.MatchValue("--schedule", &v)) {
      if (!runtime::ParseScheduleKind(v, &planner_options.latency.schedule_kind)) {
        std::fprintf(stderr, "unknown schedule kind '%s'\n", v.c_str());
        return Usage();
      }
    } else if (flags.Match("--recompute")) {
      recompute = true;
    } else if (flags.MatchValue("--memory-cap", &v)) {
      planner_options.latency.memory_cap = ParseBytes(v);
    } else if (flags.Match("--gantt")) {
      gantt = true;
    } else {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();

  const planner::ParallelPlan plan = PlanOrLoad(*job, plan_path, planner_options, recompute);
  const runtime::BuildOptions options = runtime::BuildOptionsFor(planner_options);
  const runtime::ExecutionDetail detail =
      runtime::PipelineExecutor(job->model, job->cluster, plan, options).RunDetailed();
  const obs::IterationReport r = obs::BuildIterationReport(detail.pipeline, detail.result);
  std::printf("plan %s (split %s) under %s schedule%s\n", plan.ToString().c_str(),
              plan.SplitString().c_str(), runtime::ToString(options.schedule.kind),
              r.recompute ? " + recompute" : "");
  std::printf("latency %s | throughput %.2f samples/s | speedup %.2fx\n",
              FormatTime(r.makespan).c_str(), r.throughput, r.speedup);
  std::printf("peak memory avg %s max %s%s | utilization %.0f%% | M=%d x mbs=%d\n",
              FormatBytes(r.avg_peak_memory).c_str(), FormatBytes(r.max_peak_memory).c_str(),
              r.oom ? " (OOM!)" : "", 100 * r.utilization, r.num_micro_batches,
              r.micro_batch_size);
  AsciiTable stages({"Stage", "FW busy", "BW busy", "AllReduce", "Inbound TX", "Util"});
  for (const obs::StageReport& s : r.stages) {
    stages.AddRow({AsciiTable::Int(s.stage), FormatTime(s.forward_busy),
                   FormatTime(s.backward_busy), FormatTime(s.allreduce),
                   FormatTime(s.inbound_transfer),
                   AsciiTable::Int(static_cast<int>(100 * s.utilization)) + "%"});
  }
  std::printf("%s", stages.ToString().c_str());

  if (gantt) {
    std::printf("%s", sim::RenderGantt(detail.pipeline.graph, detail.result, 100).c_str());
  }
  if (!trace_path.empty()) {
    return WriteJsonFile(trace_path, sim::ToChromeTrace(detail.pipeline.graph, detail.result),
                         "chrome trace");
  }
  return 0;
}

// The paper's Fig. 3 worked example: a two-stage uniform pipeline on one
// ConfigB server pair, M = 4 micro-batches. The values in the report are
// small enough to check by hand; the golden/unit tests pin exactly this
// configuration.
struct Fig3Example {
  model::ModelProfile model = model::MakeUniformSynthetic(4, 0.002, 0.004, 1_MiB, 1'000'000);
  topo::Cluster cluster = topo::MakeConfigB(2);
  planner::ParallelPlan plan;
  runtime::BuildOptions options;

  Fig3Example() {
    plan.model = model.name();
    for (int s = 0; s < 2; ++s) {
      planner::StagePlan sp;
      sp.layer_begin = 2 * s;
      sp.layer_end = 2 * (s + 1);
      sp.devices = topo::DeviceSet::Range(s, 1);
      plan.stages.push_back(sp);
    }
    options.global_batch_size = 4;
    options.micro_batch_size = 1;
    options.enforce_memory_capacity = false;
  }
};

int CmdReport(int argc, char** argv) {
  std::string json_path;
  if (argc >= 1 && std::strcmp(argv[0], "--fig3") == 0) {
    std::string v;
    FlagParser flags(argc - 1, argv + 1);
    while (!flags.Done()) {
      if (flags.MatchValue("--json", &v)) {
        json_path = v;
      } else {
        flags.Unknown();
      }
    }
    if (!flags.ok()) return Usage();
    const Fig3Example ex;
    const obs::IterationReport report =
        obs::RunIteration(ex.model, ex.cluster, ex.plan, ex.options);
    std::printf("%s", obs::ToText(report).c_str());
    if (!json_path.empty()) return WriteJsonFile(json_path, obs::ToJson(report), "report");
    return 0;
  }

  const std::optional<Job> job = ParseJob(argc, argv);
  if (!job) return Usage();

  std::string plan_path, v;
  std::vector<int> curve_counts;
  int sim_threads = 1;
  bool recompute = false;
  planner::PlannerOptions planner_options;
  planner_options.global_batch_size = job->gbs;
  FlagParser flags(argc - 4, argv + 4);
  while (!flags.Done()) {
    if (flags.MatchValue("--plan", &v)) {
      plan_path = v;
    } else if (flags.MatchValue("--json", &v)) {
      json_path = v;
    } else if (flags.MatchValue("--schedule", &v)) {
      if (!runtime::ParseScheduleKind(v, &planner_options.latency.schedule_kind)) {
        std::fprintf(stderr, "unknown schedule kind '%s'\n", v.c_str());
        return Usage();
      }
    } else if (flags.Match("--recompute")) {
      recompute = true;
    } else if (flags.MatchValue("--memory-cap", &v)) {
      planner_options.latency.memory_cap = ParseBytes(v);
    } else if (flags.MatchValue("--peak-vs-m", &v)) {
      for (std::size_t begin = 0, end = 0; end != std::string::npos; begin = end + 1) {
        end = v.find(',', begin);
        const std::string item = v.substr(begin, end - begin);
        if (!ParseUnsigned(item, &curve_counts.emplace_back()) || curve_counts.back() < 1) {
          std::fprintf(stderr, "--peak-vs-m needs positive integers, got '%s'\n",
                       item.c_str());
          return Usage();
        }
      }
    } else if (!flags.MatchUnsigned("--sim-threads", &sim_threads)) {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();

  const planner::ParallelPlan plan = PlanOrLoad(*job, plan_path, planner_options, recompute);
  const runtime::BuildOptions options = runtime::BuildOptionsFor(planner_options);
  const obs::IterationReport report = obs::RunIteration(job->model, job->cluster, plan, options);
  std::printf("%s", obs::ToText(report).c_str());

  if (!curve_counts.empty()) {
    const auto curve =
        obs::PeakVsMCurve(job->model, job->cluster, plan, options, curve_counts, sim_threads);
    AsciiTable t({"M", "Max peak memory"});
    for (const obs::PeakVsMPoint& p : curve) {
      t.AddRow({AsciiTable::Int(p.num_micro_batches), FormatBytes(p.max_peak_memory)});
    }
    std::printf("\npeak memory vs micro-batch count (fixed micro-batch size):\n%s",
                t.ToString().c_str());
  }
  if (!json_path.empty()) return WriteJsonFile(json_path, obs::ToJson(report), "report");
  return 0;
}

std::string ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

int CmdFaults(int argc, char** argv) {
  const std::optional<Job> job = ParseJob(argc, argv);
  if (!job) return Usage();
  const topo::Cluster& cluster = job->cluster;

  std::string plan_path, json_path, trace_path, script_path, script_text, v;
  std::string policy_arg = "all";
  bool seeded = false;
  std::uint64_t seed = 0;
  int sim_threads = 1;
  fault::FaultOptions options;
  options.build.global_batch_size = job->gbs;
  FlagParser flags(argc - 4, argv + 4);
  while (!flags.Done()) {
    if (flags.MatchValue("--plan", &v)) {
      plan_path = v;
    } else if (flags.MatchValue("--policy", &v)) {
      policy_arg = v;
    } else if (flags.MatchValue("--script", &v)) {
      script_path = v;
    } else if (flags.MatchValue("--script-text", &v)) {
      script_text = v;
    } else if (flags.MatchUnsigned("--seed", &seed)) {
      seeded = true;
    } else if (flags.MatchValue("--json", &v)) {
      json_path = v;
    } else if (flags.MatchValue("--trace", &v)) {
      trace_path = v;
    } else if (!flags.MatchPositive("--horizon", &options.horizon) &&
               !flags.MatchUnsigned("--checkpoint-period", &options.checkpoint_period) &&
               !flags.MatchUnsigned("--planner-threads", &options.planner.num_threads) &&
               !flags.MatchUnsigned("--sim-threads", &sim_threads)) {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();
  if (options.checkpoint_period < 1) {
    std::fprintf(stderr, "--checkpoint-period must be positive\n");
    return Usage();
  }

  fault::FaultScript script;
  if (!script_path.empty()) {
    script = fault::ParseFaultScript(ReadTextFile(script_path));
  } else if (!script_text.empty()) {
    script = fault::ParseFaultScript(script_text);
  } else if (seeded) {
    fault::RandomFaultOptions random;
    if (options.horizon > 0.0) random.horizon = options.horizon;
    script = fault::RandomFaultScript(seed, cluster, random);
  } else {
    std::fprintf(stderr, "no fault script: pass --script, --script-text or --seed\n");
    return Usage();
  }
  script.Validate(cluster);
  std::printf("fault script:\n%s", script.ToString().c_str());

  const planner::ParallelPlan plan = PlanOrLoad(*job, plan_path);

  std::vector<fault::RecoveryPolicy> policies;
  if (policy_arg == "all") {
    policies = fault::AllRecoveryPolicies();
  } else {
    policies = {fault::ParseRecoveryPolicy(policy_arg)};
  }

  const std::vector<fault::FaultReport> reports =
      fault::RunFaultPolicySweep(job->model, cluster, plan, script, policies, options,
                                 sim_threads);

  if (reports.size() == 1) {
    std::printf("%s", fault::ToText(reports[0]).c_str());
  } else {
    std::printf("plan %s | healthy %.6g samples/s | horizon %.6g s\n",
                reports[0].initial_plan.c_str(), reports[0].healthy_throughput,
                reports[0].horizon);
    AsciiTable table({"Policy", "Iters", "Goodput", "Loss", "Recover", "Post-fault", "Actions"});
    for (const fault::FaultReport& r : reports) {
      table.AddRow({fault::ToString(r.policy), AsciiTable::Int(r.iterations_completed),
                    AsciiTable::Num(r.goodput, 2) + "/s",
                    AsciiTable::Int(static_cast<int>(100 * r.goodput_loss)) + "%",
                    r.recovered ? FormatTime(r.time_to_recover) : "never",
                    AsciiTable::Num(r.post_fault_throughput, 2) + "/s",
                    AsciiTable::Int(r.replans + r.restores + r.checkpoints)});
    }
    std::printf("%s", table.ToString().c_str());
  }

  if (!trace_path.empty() &&
      WriteJsonFile(trace_path, fault::ToChromeTrace(reports.back()), "chrome trace")) {
    return 1;
  }
  if (!json_path.empty()) {
    if (reports.size() == 1) return WriteJsonFile(json_path, fault::ToJson(reports[0]), "report");
    std::string doc = "[\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      doc += fault::ToJson(reports[i]);
      doc += i + 1 < reports.size() ? ",\n" : "\n";
    }
    doc += "]";
    return WriteJsonFile(json_path, doc, "report");
  }
  return 0;
}

int CmdScenario(int argc, char** argv) {
  const std::optional<Job> job = ParseJob(argc, argv);
  if (!job) return Usage();

  std::string json_path, trace_path, v;
  std::string policy_arg = "all";
  int jobs = 1;
  int episodes = 4;
  std::uint64_t seed = 1;
  int sim_threads = 1;
  scenario::ChurnModel churn = scenario::ChurnModel::kSpotChurn;
  scenario::ChurnOptions churn_options;
  fault::FaultOptions fault_options;
  fault_options.build.global_batch_size = job->gbs;
  FlagParser flags(argc - 4, argv + 4);
  while (!flags.Done()) {
    if (flags.MatchValue("--churn", &v)) {
      churn = scenario::ParseChurnModel(v);
    } else if (flags.MatchValue("--policy", &v)) {
      policy_arg = v;
    } else if (flags.MatchValue("--json", &v)) {
      json_path = v;
    } else if (flags.MatchValue("--trace", &v)) {
      trace_path = v;
    } else if (!flags.MatchPositive("--horizon", &churn_options.horizon) &&
               !flags.MatchUnsigned("--jobs", &jobs) &&
               !flags.MatchUnsigned("--episodes", &episodes) &&
               !flags.MatchUnsigned("--seed", &seed) &&
               !flags.MatchUnsigned("--sim-threads", &sim_threads)) {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();
  if (episodes < 1) {
    std::fprintf(stderr, "--episodes must be positive\n");
    return Usage();
  }
  if (jobs < 1) {
    std::fprintf(stderr, "--jobs must be positive\n");
    return Usage();
  }

  const planner::ParallelPlan plan = PlanOrLoad(*job, "");

  std::vector<fault::RecoveryPolicy> policies;
  if (policy_arg == "all") {
    policies = fault::AllRecoveryPolicies();
  } else {
    policies = {fault::ParseRecoveryPolicy(policy_arg)};
  }

  std::printf("churn=%s, %d episode(s) from seed %llu, horizon %.6g s, plan %s\n",
              scenario::ToString(churn), episodes,
              static_cast<unsigned long long>(seed), churn_options.horizon,
              plan.ToString().c_str());

  std::vector<scenario::EpisodeReport> all_reports;
  AsciiTable table({"Policy", "Iters", "Preempt", "Rejoin", "Scale-up", "Goodput", "Util"});
  for (const fault::RecoveryPolicy policy : policies) {
    std::vector<scenario::EpisodeOptions> batch;
    for (int i = 0; i < episodes; ++i) {
      scenario::EpisodeOptions o;
      o.seed = seed + static_cast<std::uint64_t>(i);
      o.churn = churn;
      o.churn_options = churn_options;
      o.policy = policy;
      o.fault = fault_options;
      batch.push_back(o);
    }
    const std::vector<scenario::EpisodeReport> reports =
        scenario::RunEpisodeSweep(job->model, job->cluster, plan, batch, sim_threads);
    long iters = 0;
    int preempt = 0, rejoin = 0, scale_ups = 0;
    double goodput = 0.0, util = 0.0;
    for (const scenario::EpisodeReport& r : reports) {
      iters += r.fault.iterations_completed;
      preempt += r.preemptions;
      rejoin += r.rejoins;
      scale_ups += r.fault.scale_ups;
      goodput += r.fault.goodput;
      util += r.utilization;
    }
    const double n = static_cast<double>(reports.size());
    table.AddRow({fault::ToString(policy), AsciiTable::Int(static_cast<int>(iters)),
                  AsciiTable::Int(preempt), AsciiTable::Int(rejoin),
                  AsciiTable::Int(scale_ups), AsciiTable::Num(goodput / n, 2) + "/s",
                  AsciiTable::Int(static_cast<int>(100.0 * util / n)) + "%"});
    for (const scenario::EpisodeReport& r : reports) all_reports.push_back(r);
  }
  std::printf("%s", table.ToString().c_str());

  // The last policy's last episode — with the default policy order that is
  // an elastic-up episode, scale-up cutovers and all.
  if (!trace_path.empty() &&
      WriteJsonFile(trace_path, scenario::ToChromeTrace(all_reports.back()), "chrome trace")) {
    return 1;
  }

  if (jobs > 1) {
    // N concurrent jobs compete for the same server budget: the same model
    // with staggered remaining-iteration counts, so the optimal split is
    // deliberately uneven and the search has something to find.
    std::vector<scenario::JobSpec> specs;
    for (int j = 0; j < jobs; ++j) {
      specs.push_back(
          scenario::JobSpec{"job" + std::to_string(j), job->model, job->gbs, 40 * (jobs - j)});
    }
    scenario::CoScheduleOptions cosched;
    cosched.sim_threads = sim_threads;
    const scenario::CoScheduleReport report =
        scenario::CoSchedule(job->cluster, specs, cosched);
    std::printf("%s", scenario::ToText(report).c_str());
    if (!json_path.empty()) return WriteJsonFile(json_path, scenario::ToJson(report), "report");
  } else if (!json_path.empty()) {
    return WriteJsonFile(json_path, scenario::ToJson(all_reports), "report");
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  serve::ServerOptions options;
  std::string socket_path;
  std::uint16_t tcp_port = 0;
  bool tcp = false;
  int max_connections = 0;
  bool stdio = false;
  FlagParser flags(argc, argv);
  while (!flags.Done()) {
    if (flags.Match("--stdio")) {
      stdio = true;
    } else if (flags.MatchUnsigned("--tcp", &tcp_port)) {
      tcp = true;
    } else if (!flags.MatchValue("--socket", &socket_path) &&
               !flags.MatchUnsigned("--workers", &options.workers) &&
               !flags.MatchUnsigned("--cache-entries", &options.cache_entries) &&
               !flags.MatchUnsigned("--max-batch", &options.max_batch) &&
               !flags.MatchUnsigned("--max-connections", &max_connections)) {
      flags.Unknown();
    }
  }
  if (!flags.ok()) return Usage();
  if (stdio && (!socket_path.empty() || tcp)) {
    std::fprintf(stderr, "pick one transport: --stdio, --socket or --tcp\n");
    return Usage();
  }
  if (options.cache_entries < 1) {
    std::fprintf(stderr, "--cache-entries must be at least 1\n");
    return Usage();
  }

  serve::Server server(options);
  long handled = 0;
  if (!socket_path.empty()) {
    std::fprintf(stderr, "dapple serve: %d workers, cache %ld entries, unix socket %s\n",
                 server.workers(), options.cache_entries, socket_path.c_str());
    handled = serve::ServeUnixSocket(socket_path, server, max_connections);
  } else if (tcp) {
    std::fprintf(stderr, "dapple serve: %d workers, cache %ld entries, tcp 127.0.0.1:%d\n",
                 server.workers(), options.cache_entries, tcp_port);
    handled = serve::ServeTcp(tcp_port, server, max_connections);
  } else {
    handled = serve::ServeConnection(STDIN_FILENO, STDOUT_FILENO, server);
  }

  const serve::ServerStats stats = server.Stats();
  std::fprintf(stderr,
               "served %ld requests (%lld errors) | plan cache %lld hits / %lld misses "
               "(%.0f%% hit rate), %lld evictions\n",
               handled, static_cast<long long>(stats.errors),
               static_cast<long long>(stats.cache.hits),
               static_cast<long long>(stats.cache.misses), 100.0 * stats.cache.hit_rate(),
               static_cast<long long>(stats.cache.evictions));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  try {
    if (std::strcmp(argv[1], "zoo") == 0) return CmdZoo();
    if (std::strcmp(argv[1], "plan") == 0) return CmdPlan(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "run") == 0) return CmdRun(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "report") == 0) return CmdReport(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "faults") == 0) return CmdFaults(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "scenario") == 0) return CmdScenario(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "serve") == 0) return CmdServe(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
