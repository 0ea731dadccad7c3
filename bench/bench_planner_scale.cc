// Planner scaling sweep: the parallel memoized search on GNMT-16 and
// AmoebaNet-36 across 8/16/32/64-device Config-A clusters (plus one
// 128-device GNMT point, memoized like the rest), serial vs 2/4/8 worker
// threads. Four things are measured per point:
//
//   1. byte-identity — every thread count must serialize the exact plan the
//      serial search found (the bench exits non-zero on any mismatch, so it
//      doubles as a coarse determinism check on real multi-core hardware);
//   2. wall-clock speedup over serial, plus the Amdahl projection computed
//      from the serial run's phase split (enumerate/evaluate/merge) — on a
//      single-core host the measured column shows ~1x or below while the
//      projection reports what the decomposition supports;
//   3. stage-row memo hit rate (row lookups that found their row filled),
//      which should climb with cluster size as the same rows are read by
//      ever more placements;
//   4. stage rows held at the end of the search. Rows are keyed by what
//      their pricer reads (planner/stage_cache.h), so the count is a pure
//      function of the search, the same at every thread count;
//   5. the serial run's evaluate time per scored split (evaluate_seconds /
//      candidates_evaluated, in ns): the per-split cost of
//      LatencyEstimator::ScoreSplits plus the row lookups that feed it.
//
// `--quick` trims to the two smallest GNMT points at threads {1, 8} for the
// perf-smoke CI tier (finishes in seconds) and also exits non-zero when the
// two runs of a point differ in row traffic (hits, or misses, which are the
// rows: each row is filled exactly once, so both are pure functions of the
// search) or in the search's shape (subproblems, candidates evaluated,
// frontier peak: the enumeration and the frontier slots are serial, so a
// thread count that moves them has broken the merge); the full sweep caps the
// largest searches with max_stages (noted in the table) to keep the
// uncapped 64-device GNMT search — minutes of work, most of its memory
// the DP frontier — out of a benchmark binary.
#include "harness.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "planner/plan_io.h"

using namespace dapple;

namespace {

struct SweepPoint {
  const char* model;
  long gbs;
  int servers;     // Config-A, 8 GPUs each
  int max_stages;  // 0 = planner default (unbounded)
  bool big;        // restrict to threads {1, 8} to bound total runtime
};

struct RunResult {
  double wall = 0.0;
  std::string plan_bytes;
  planner::PlannerSearchStats stats;
};

RunResult RunOnce(const model::ModelProfile& m, const topo::Cluster& cluster,
                  const SweepPoint& point, int threads) {
  planner::PlannerOptions options;
  options.global_batch_size = point.gbs;
  options.max_stages = point.max_stages;
  options.num_threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const planner::PlanResult result = planner::DapplePlanner(m, cluster, options).Plan();
  const auto t1 = std::chrono::steady_clock::now();
  RunResult out;
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.plan_bytes = planner::SerializePlan(result.plan);
  out.stats = result.stats;
  return out;
}

/// Evaluate-phase nanoseconds per candidate the search scored.
double EvaluateNsPerSplit(const planner::PlannerSearchStats& stats) {
  if (stats.candidates_evaluated <= 0) return 0.0;
  return stats.evaluate_seconds * 1e9 / static_cast<double>(stats.candidates_evaluated);
}

/// Speedup at `threads` predicted by Amdahl's law from the serial phase
/// split: only the evaluate phase parallelizes, enumeration and merge are
/// serial by design (the merge deliberately so — it is what makes the
/// search deterministic).
double AmdahlProjection(const planner::PlannerSearchStats& serial, int threads) {
  const double wall = serial.wall_seconds;
  const double par = serial.evaluate_seconds;
  if (wall <= 0.0 || par <= 0.0 || par >= wall) return static_cast<double>(threads);
  return wall / ((wall - par) + par / static_cast<double>(threads));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::PrintHeader("Planner scaling — parallel memoized search",
                     "DAPPLE paper, Sec. 5 planner (scaling study)");

  std::vector<SweepPoint> points;
  if (quick) {
    points = {{"GNMT-16", 1024, 1, 0, false}, {"GNMT-16", 1024, 2, 0, false}};
  } else {
    points = {
        {"GNMT-16", 1024, 1, 0, false},
        {"GNMT-16", 1024, 2, 0, false},
        {"GNMT-16", 1024, 4, 0, false},
        {"GNMT-16", 1024, 8, 3, false},
        {"AmoebaNet-36", 128, 1, 0, false},
        {"AmoebaNet-36", 128, 2, 0, false},
        {"AmoebaNet-36", 128, 4, 3, false},
        {"AmoebaNet-36", 128, 8, 3, true},
        {"GNMT-16", 1024, 16, 3, true},
    };
  }

  AsciiTable table({"Model", "Devices", "Cap", "Threads", "Wall (s)", "Speedup",
                    "Projected", "Cache hit%", "Rows", "Candidates", "Eval ns/split"});
  int mismatches = 0;
  int row_mismatches = 0;
  int shape_mismatches = 0;
  for (const SweepPoint& point : points) {
    const model::ModelProfile m = model::ModelByName(point.model);
    const topo::Cluster cluster = topo::MakeConfigA(point.servers);

    std::vector<int> thread_counts;
    if (quick || point.big) {
      thread_counts = {1, 8};
    } else {
      thread_counts = {1, 2, 4, 8};
    }

    RunResult serial;
    for (int threads : thread_counts) {
      const RunResult run = RunOnce(m, cluster, point, threads);
      if (threads == 1) {
        serial = run;
      } else if (run.plan_bytes != serial.plan_bytes) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s on %d devices, %d threads "
                     "produced a different plan than serial\n",
                     point.model, cluster.num_devices(), threads);
        ++mismatches;
      }
      if (quick && (run.stats.cache_hits != serial.stats.cache_hits ||
                    run.stats.cache_misses != serial.stats.cache_misses)) {
        std::fprintf(stderr,
                     "ROW TRAFFIC MISMATCH: %s on %d devices, %d threads filled %lld rows "
                     "(%lld hits), serial %lld rows (%lld hits)\n",
                     point.model, cluster.num_devices(), threads,
                     static_cast<long long>(run.stats.cache_misses),
                     static_cast<long long>(run.stats.cache_hits),
                     static_cast<long long>(serial.stats.cache_misses),
                     static_cast<long long>(serial.stats.cache_hits));
        ++row_mismatches;
      }
      if (quick && (run.stats.subproblems != serial.stats.subproblems ||
                    run.stats.candidates_evaluated != serial.stats.candidates_evaluated ||
                    run.stats.frontier_peak != serial.stats.frontier_peak)) {
        std::fprintf(stderr,
                     "SEARCH SHAPE MISMATCH: %s on %d devices, %d threads enumerated %ld "
                     "subproblems (%ld candidates, frontier peak %ld), serial %ld (%ld, %ld)\n",
                     point.model, cluster.num_devices(), threads, run.stats.subproblems,
                     run.stats.candidates_evaluated, run.stats.frontier_peak,
                     serial.stats.subproblems, serial.stats.candidates_evaluated,
                     serial.stats.frontier_peak);
        ++shape_mismatches;
      }
      const double speedup = run.wall > 0.0 ? serial.wall / run.wall : 0.0;
      table.AddRow({point.model, AsciiTable::Int(cluster.num_devices()),
                    point.max_stages > 0 ? AsciiTable::Int(point.max_stages) : "-",
                    AsciiTable::Int(threads), AsciiTable::Num(run.wall, 3),
                    threads == 1 ? "1.00x" : AsciiTable::Num(speedup, 2) + "x",
                    AsciiTable::Num(AmdahlProjection(serial.stats, threads), 2) + "x",
                    AsciiTable::Num(run.stats.cache_hit_rate() * 100.0, 1),
                    AsciiTable::Int(run.stats.cache_misses),
                    AsciiTable::Int(run.stats.candidates_evaluated),
                    threads == 1 ? AsciiTable::Num(EvaluateNsPerSplit(run.stats), 1) : "-"});

      // Headline comparison line: the 8-thread speedup against the goal.
      if (threads == 8) {
        char metric[96], measured[96];
        std::snprintf(metric, sizeof(metric), "%s x%d-device speedup @ 8 threads",
                      point.model, cluster.num_devices());
        std::snprintf(measured, sizeof(measured), "%.2fx measured, %.2fx Amdahl-projected",
                      speedup, AmdahlProjection(serial.stats, 8));
        bench::PrintComparison(metric, ">=3x (32-dev GNMT goal)", measured);
      }
    }
    if (&point != &points.back()) table.AddSeparator();
  }
  std::printf("%s", table.ToString().c_str());

  std::printf(
      "\nReading guide: 'Speedup' is measured wall-clock vs the serial run of\n"
      "the same point and only reflects the host's real core count;\n"
      "'Projected' is the Amdahl bound from the serial phase split (only the\n"
      "candidate-evaluation phase parallelizes; enumeration and the\n"
      "determinism-preserving merge are serial). On a multi-core host the two\n"
      "columns should converge; on a single-core host trust the projection.\n"
      "Cap = max_stages bound applied to keep the largest searches inside a\n"
      "benchmark-sized budget. Cache hit%% counts stage-row lookups\n"
      "(planner/stage_cache.h), at every cluster size. Rows counts the rows\n"
      "the memo held at the end: one per distinct pricer input (replica\n"
      "count, span and slowest device of a stage; both replica counts and\n"
      "link kinds of a boundary) per family, anchor, micro-batch size and\n"
      "recompute flag. Each row is filled exactly once, so neither it nor\n"
      "the hit rate may change with the thread count; a row count\n"
      "that grows with the device ids rather than with the set shapes means\n"
      "the key has regressed to a finer one. Eval ns/split is the serial\n"
      "run's evaluate phase over the candidates it scored: what one split\n"
      "costs, row lookups and fills included.\n");

  if (mismatches > 0) {
    std::fprintf(stderr, "%d determinism violation(s)\n", mismatches);
    return 1;
  }
  if (row_mismatches > 0) {
    std::fprintf(stderr, "%d row traffic mismatch(es)\n", row_mismatches);
    return 1;
  }
  if (shape_mismatches > 0) {
    std::fprintf(stderr, "%d search shape mismatch(es)\n", shape_mismatches);
    return 1;
  }
  return 0;
}
