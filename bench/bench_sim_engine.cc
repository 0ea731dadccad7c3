// Simulation-engine throughput sweep over a corpus of fuzz-built
// pipelines. Two measurements, each fenced by byte-identity:
//
//   1. serial events/sec of sim::Engine vs the reference engine (legacy
//      ordered-set/priority-queue containers). The Engine row times what
//      callers pay — flatten into the SoaGraph layout plus the event loop —
//      on one reused Engine. Fifteen warmed (reference, engine) trial pairs
//      are timed in the calling thread's CPU time, so the comparison times
//      steady-state processing, not first-pass allocation, a scheduler
//      hiccup or other processes sharing the cores. Each row shows its best
//      trial; the speedup is the median of the pairs' ratios, and falling
//      below the reference engine's events/s exits non-zero;
//   2. wall-clock events/sec of the ThreadPool multi-seed path at 1/2/8
//      worker threads vs the plain serial loop — the win from fanning
//      independent simulations across cores;
//   3. CPU µs per pipeline of each stage callers pay: GraphBuilder::Build,
//      the SoaGraph flatten and the event loop, each timed alone.
//
// Every simulation result is fingerprinted (bit-exact records, pool peaks,
// makespan) outside the timed regions; any divergence between the
// reference engine, the Engine and any batched run exits non-zero, so the
// bench doubles as a determinism check on real hardware.
//
// `--quick` trims the corpus for the perf-smoke CI tier.
#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"

using namespace dapple;

namespace {

/// Bit-exact digest of everything a simulation produced. Doubles are
/// appended as raw bytes: identical digest <=> identical simulation.
std::string Fingerprint(const sim::SimResult& result) {
  std::string bytes;
  bytes.reserve(result.records.size() * 16 + 64);
  auto put = [&bytes](double v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    bytes.append(raw, sizeof v);
  };
  put(result.makespan);
  put(result.completed ? 1.0 : 0.0);
  for (const sim::TaskRecord& rec : result.records) {
    put(rec.start);
    put(rec.end);
    put(rec.executed ? 1.0 : 0.0);
  }
  for (const sim::MemoryPool& pool : result.pools) {
    put(static_cast<double>(pool.peak()));
    put(pool.peak_time());
  }
  return bytes;
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  bench::PrintHeader(
      "Simulation engine — SoA event loop, batched multi-seed",
      "DAPPLE paper, Sec. 6 evaluation methodology (simulated testbed)");

  // Corpus: fuzz-derived pipelines, the same generator the differential
  // harness uses, so the bench exercises both schedules, recomputation,
  // replication modes and straggler clusters.
  const int corpus_size = quick ? 32 : 192;
  std::vector<check::FuzzCase> cases;
  std::vector<runtime::GraphBuilder> builders;
  std::vector<runtime::BuiltPipeline> corpus;
  cases.reserve(static_cast<std::size_t>(corpus_size));
  builders.reserve(static_cast<std::size_t>(corpus_size));
  corpus.reserve(static_cast<std::size_t>(corpus_size));
  long total_tasks = 0;
  for (std::uint64_t seed = 0; corpus.size() < static_cast<std::size_t>(corpus_size);
       ++seed) {
    const check::FuzzCase& c = cases.emplace_back(check::MakeFuzzCase(seed));
    corpus.push_back(builders.emplace_back(c.model, c.cluster, c.plan, c.options).Build());
    total_tasks += corpus.back().graph.num_tasks();
  }
  // Each timed region replays the corpus `reps` times (after one untimed
  // warmup pass, see bench::TimeWarmedPasses); fingerprints are taken from
  // the final pass. The quick corpus is small, so it takes enough passes
  // for every serial trial to run >= 50 ms: one scheduling hiccup inside a
  // few-millisecond region could swing the engine floor below 1.0x.
  const int reps = quick ? 240 : 5;
  const long total_events = total_tasks * reps;
  std::printf("\ncorpus: %d fuzz pipelines, %ld tasks total, %d passes per measurement\n",
              corpus_size, total_tasks, reps);

  int failures = 0;

  // 1. Reference vs Engine, serial. The Engine instance is reused across
  // the corpus — exactly how pool workers run it. The floor reads the
  // median of the ratios of kTrials alternating (reference, engine) trial
  // pairs: the two trials of a pair run back to back, so a busy stretch of
  // the host slows both alike, and the median ignores the pairs a burst
  // split. The ratio of the two best trials failed the 1.0x floor about
  // once in a hundred runs on a loaded 4-core host, where its spread over
  // runs was 2.7x the paired median's.
  constexpr int kTrials = 15;
  std::vector<sim::SimResult> ref_results;
  const auto ref_pass = [&] {
    ref_results.clear();
    ref_results.reserve(corpus.size());
    for (const runtime::BuiltPipeline& b : corpus) {
      ref_results.push_back(sim::RunReferenceEngine(b.graph, b.engine_options));
    }
  };
  sim::Engine engine;
  std::vector<sim::SimResult> engine_results;
  const auto engine_pass = [&] {
    engine_results.clear();
    engine_results.reserve(corpus.size());
    for (const runtime::BuiltPipeline& b : corpus) {
      engine_results.push_back(engine.Simulate(b.graph, b.engine_options));
    }
  };
  double ref_cpu = std::numeric_limits<double>::infinity();
  double engine_cpu = std::numeric_limits<double>::infinity();
  std::vector<double> pair_speedups;
  for (int trial = 0; trial < kTrials; ++trial) {
    const double ref = bench::TimeWarmedPasses(reps, ref_pass);
    const double eng = bench::TimeWarmedPasses(reps, engine_pass);
    ref_cpu = std::min(ref_cpu, ref);
    engine_cpu = std::min(engine_cpu, eng);
    pair_speedups.push_back(eng > 0.0 ? ref / eng : 0.0);
  }
  std::nth_element(pair_speedups.begin(), pair_speedups.begin() + kTrials / 2,
                   pair_speedups.end());
  const double engine_speedup = pair_speedups[kTrials / 2];

  std::vector<std::string> expected;
  expected.reserve(ref_results.size());
  for (const sim::SimResult& r : ref_results) expected.push_back(Fingerprint(r));
  for (std::size_t i = 0; i < engine_results.size(); ++i) {
    if (Fingerprint(engine_results[i]) != expected[i]) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: engine diverged from the reference on "
                   "corpus pipeline %zu\n",
                   i);
      ++failures;
    }
  }

  const double events_per_sec_ref =
      ref_cpu > 0.0 ? static_cast<double>(total_events) / ref_cpu : 0.0;
  const double events_per_sec_engine =
      engine_cpu > 0.0 ? static_cast<double>(total_events) / engine_cpu : 0.0;

  AsciiTable table({"Path", "Threads", "Time (s)", "Events/s", "Speedup", "Projected"});
  table.AddRow({"reference", "1", AsciiTable::Num(ref_cpu, 3),
                AsciiTable::Num(events_per_sec_ref, 0), "1.00x", "-"});
  table.AddRow({"engine", "1", AsciiTable::Num(engine_cpu, 3),
                AsciiTable::Num(events_per_sec_engine, 0),
                AsciiTable::Num(engine_speedup, 2) + "x", "-"});
  table.AddSeparator();

  // 2. The batched multi-seed path. One-thread batch measures the pool's
  // overhead over the plain loop; that overhead feeds the Amdahl projection
  // for hosts without real cores to show the parallel win directly.
  double batch1_wall = 0.0;
  const std::vector<int> thread_counts = quick ? std::vector<int>{1, 8}
                                               : std::vector<int>{1, 2, 8};
  for (int threads : thread_counts) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::SimResult> results;
    for (int rep = 0; rep < reps; ++rep) {
      results = pool.Map<sim::SimResult>(corpus.size(), [&](std::size_t i) {
        return sim::Engine::Run(corpus[i].graph, corpus[i].engine_options);
      });
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = Seconds(t0, t1);
    if (threads == 1) batch1_wall = wall;

    for (std::size_t i = 0; i < results.size(); ++i) {
      if (Fingerprint(results[i]) != expected[i]) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: batched run at %d threads diverged "
                     "from the reference on corpus pipeline %zu\n",
                     threads, i);
        ++failures;
      }
    }

    // Amdahl from the measured driver overhead: the per-simulation work is
    // fully parallel; only the dispatch overhead (batch1 - serial) is not.
    const double overhead = batch1_wall > engine_cpu ? batch1_wall - engine_cpu : 0.0;
    const double projected =
        engine_cpu > 0.0 ? engine_cpu / (overhead + engine_cpu / threads) : 0.0;
    const double speedup = wall > 0.0 ? engine_cpu / wall : 0.0;
    const double events = wall > 0.0 ? static_cast<double>(total_events) / wall : 0.0;
    table.AddRow({"batched", AsciiTable::Int(threads), AsciiTable::Num(wall, 3),
                  AsciiTable::Num(events, 0), AsciiTable::Num(speedup, 2) + "x",
                  AsciiTable::Num(projected, 2) + "x"});

    if (threads == 8) {
      char measured[96];
      std::snprintf(measured, sizeof(measured),
                    "%.2fx measured, %.2fx Amdahl-projected", speedup, projected);
      bench::PrintComparison("batched multi-seed events/sec speedup @ 8 threads",
                             ">=3x", measured);
    }
  }

  // The engine floor: the production engine must not lose to the oracle.
  // Short timed regions swing the ratio by +-20% between runs even in
  // thread CPU time (caches, frequency), so a tighter floor would measure
  // the host, not the code.
  char engine_measured[64];
  std::snprintf(engine_measured, sizeof(engine_measured), "%.2fx events/sec",
                engine_speedup);
  bench::PrintComparison("engine vs reference containers (serial)", ">=1.0x",
                         engine_measured);
  if (engine_speedup < 1.0) {
    std::fprintf(stderr, "ENGINE REGRESSION: %.2fx vs reference, floor 1.0x\n",
                 engine_speedup);
    ++failures;
  }

  std::printf("%s", table.ToString().c_str());

  // 3. One pipeline's cost by stage: graph build, flatten and event loop,
  // each timed alone (best of kStageTrials warmed trials, thread CPU time)
  // next to the engine row's flatten + loop.
  constexpr int kStageTrials = 5;
  std::vector<sim::SoaGraph> flat(corpus.size());
  const auto per_pipeline_us = [&](const std::function<void()>& pass) {
    double best = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < kStageTrials; ++trial) {
      best = std::min(best, bench::TimeWarmedPasses(reps, pass));
    }
    return best * 1e6 / (static_cast<double>(reps) * corpus_size);
  };
  const double build_us = per_pipeline_us([&] {
    for (const runtime::GraphBuilder& b : builders) b.Build();
  });
  const double flatten_us = per_pipeline_us([&] {
    for (std::size_t i = 0; i < corpus.size(); ++i) flat[i].Assign(corpus[i].graph);
  });
  const double loop_us = per_pipeline_us([&] {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      engine.Simulate(flat[i], corpus[i].engine_options);
    }
  });
  AsciiTable stages({"Stage", "CPU us/pipeline"});
  stages.AddRow({"build (GraphBuilder::Build)", AsciiTable::Num(build_us, 2)});
  stages.AddRow({"flatten (SoaGraph::Assign)", AsciiTable::Num(flatten_us, 2)});
  stages.AddRow({"loop (Engine::Simulate)", AsciiTable::Num(loop_us, 2)});
  stages.AddRow({"flatten + loop (engine row)",
                 AsciiTable::Num(engine_cpu * 1e6 / (static_cast<double>(reps) * corpus_size), 2)});
  std::printf("\nper pipeline (%.1f tasks on average):\n%s",
              static_cast<double>(total_tasks) / corpus_size, stages.ToString().c_str());

  std::printf(
      "\nReading guide: 'Time' is the best trial's thread CPU time on the\n"
      "serial rows and wall clock on the batched rows. 'Speedup' compares\n"
      "against the serial reference loop of the same corpus (on the engine\n"
      "row, the median over alternating trial pairs); the batched rows'\n"
      "speedup is against the serial engine loop and reflects the host's\n"
      "real core count, with 'Projected' the Amdahl bound from the measured\n"
      "one-thread batch overhead (the per-simulation work itself is\n"
      "embarrassingly parallel). On a single-core host trust the projection.\n"
      "Identity of every simulation against the reference engine is asserted\n"
      "in this same run.\n");

  if (failures > 0) {
    std::fprintf(stderr, "%d bench invariant violation(s)\n", failures);
    return 1;
  }
  return 0;
}
