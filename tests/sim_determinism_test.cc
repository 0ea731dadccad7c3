// Determinism sweep for the simulation engine and BatchRunner: across
// a seeded set of fuzz-generated pipelines, sim::Engine (both its
// thread-local flatten-and-run path and a reused explicit SoaGraph) and
// BatchRunner at every thread count must produce chrome traces, iteration
// reports and memory high-water marks byte-identical to the reference
// engine (legacy ordered-set/priority-queue containers) — fault-free and
// under fault speed profiles alike. The engine is deterministic by
// construction — explicit (priority, id) dispatch and (time, priority, id)
// completion keys, thread-local arenas, slot-indexed batch results; this
// sweep is the regression net around that construction, the simulator
// mirror of planner_determinism_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "obs/report.h"
#include "runtime/graph_builder.h"
#include "sim/batch.h"
#include "sim/chrome_trace.h"
#include "sim/engine.h"

namespace dapple::sim {
namespace {

/// Everything about one simulation that must not depend on which engine ran
/// it or on the batch thread count. Strings are compared byte-for-byte and
/// times/bytes bit-for-bit — no tolerances anywhere.
struct SimFingerprint {
  TimeSec makespan = 0.0;
  std::string trace;   // full chrome trace JSON
  std::string report;  // iteration-report JSON
  Bytes max_peak = 0;
  std::vector<Bytes> pool_peaks;
  std::vector<TimeSec> pool_peak_times;
  bool completed = true;
  int tasks_unfinished = 0;
  std::vector<bool> started;

  bool operator==(const SimFingerprint& other) const = default;
};

SimFingerprint Fingerprint(const runtime::BuiltPipeline& built, const SimResult& result) {
  SimFingerprint fp;
  fp.makespan = result.makespan;
  fp.trace = ToChromeTrace(built.graph, result);
  fp.report = obs::ToJson(obs::BuildIterationReport(built, result));
  fp.max_peak = result.MaxPeakMemory();
  for (const MemoryPool& pool : result.pools) {
    fp.pool_peaks.push_back(pool.peak());
    fp.pool_peak_times.push_back(pool.peak_time());
  }
  fp.completed = result.completed;
  fp.tasks_unfinished = result.tasks_unfinished;
  for (const TaskRecord& rec : result.records) fp.started.push_back(rec.started);
  return fp;
}

int SweepInstances() {
  // DAPPLE_FUZZ_ITERATIONS scales the determinism sweep too, but never
  // below the pinned floor of 200 instances.
  if (const char* env = std::getenv("DAPPLE_FUZZ_ITERATIONS")) {
    const int n = std::atoi(env);
    if (n > 200) return n;
  }
  return 200;
}

TEST(SimDeterminismTest, EngineMatchesTheReferenceOracle) {
  const int instances = SweepInstances();
  int multi_pool = 0;
  long tasks = 0;
  // One Engine reused across the sweep, so the arena-reuse path (stale
  // capacity from a previous, differently-shaped graph) is exercised too.
  Engine engine;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(c.model, c.cluster, c.plan, c.options).Build();

    const SimFingerprint reference =
        Fingerprint(built, RunReferenceEngine(built.graph, built.engine_options));
    ASSERT_EQ(reference, Fingerprint(built, Engine::Run(built.graph, built.engine_options)))
        << "engine diverged from the reference containers: seed=" << seed << " "
        << c.Describe();

    // The explicit-flatten path must agree with the flatten-and-run path.
    const SoaGraph flat(built.graph);
    ASSERT_EQ(reference, Fingerprint(built, engine.Simulate(flat, built.engine_options)))
        << "engine with a pre-built SoaGraph diverged: seed=" << seed << " "
        << c.Describe();

    tasks += built.graph.num_tasks();
    if (reference.pool_peaks.size() > 1) ++multi_pool;
  }
  // Non-vacuity: the sweep must exercise real pipelines, not trivia.
  EXPECT_GT(tasks, instances * 10L);
  EXPECT_GT(multi_pool, instances / 2);
}

// The fault and scenario layers drive the engine's speed-profile branch.
// Every corpus pipeline gets a half-speed window over the middle of its
// fault-free run on one resource, and a fail-stop (trailing zero-speed
// segment) from 60% of it on another, so runs end incomplete with tasks
// pinned mid-flight.
TEST(SimDeterminismTest, FaultSpeedProfilesMatchTheReferenceOracle) {
  const int instances = SweepInstances();
  int incomplete = 0;
  int pinned = 0;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(c.model, c.cluster, c.plan, c.options).Build();
    const TimeSec m = RunReferenceEngine(built.graph, built.engine_options).makespan;

    const int num_resources = built.graph.num_resources();
    const auto slow_resource = static_cast<ResourceId>(seed % num_resources);
    const auto dead_resource = static_cast<ResourceId>((seed * 7 + 3) % num_resources);
    ResourceSpeedProfile slow{slow_resource, {{0.2 * m, 0.5}, {0.5 * m, 1.0}}};
    const SpeedSegment crash{0.6 * m, 0.0};
    EngineOptions options = built.engine_options;
    options.allow_incomplete = true;
    if (dead_resource == slow_resource) {
      slow.segments.push_back(crash);
      options.resource_speeds = {slow};
    } else {
      options.resource_speeds = {slow, {dead_resource, {crash}}};
    }

    const SimResult ref_result = RunReferenceEngine(built.graph, options);
    const SimFingerprint reference = Fingerprint(built, ref_result);
    ASSERT_EQ(reference, Fingerprint(built, Engine::Run(built.graph, options)))
        << "engine diverged from the reference under fault profiles: seed=" << seed << " "
        << c.Describe();

    if (!reference.completed) ++incomplete;
    for (const TaskRecord& rec : ref_result.records) {
      if (rec.started && !rec.executed) ++pinned;
    }
  }
  // Non-vacuity: most runs must stall on the crash, with tasks pinned.
  EXPECT_GT(incomplete, instances / 2);
  EXPECT_GT(pinned, instances / 2);
}

TEST(SimDeterminismTest, BatchRunnerMatchesSerialAtEveryThreadCount) {
  const int instances = SweepInstances();

  // Build every pipeline once; jobs borrow the graphs.
  std::vector<runtime::BuiltPipeline> built;
  built.reserve(static_cast<std::size_t>(instances));
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    built.push_back(runtime::GraphBuilder(c.model, c.cluster, c.plan, c.options).Build());
  }
  std::vector<SimJob> jobs;
  jobs.reserve(built.size());
  for (const runtime::BuiltPipeline& b : built) {
    jobs.push_back({&b.graph, b.engine_options});
  }

  std::vector<SimFingerprint> serial;
  serial.reserve(built.size());
  for (const runtime::BuiltPipeline& b : built) {
    serial.push_back(Fingerprint(b, Engine::Run(b.graph, b.engine_options)));
  }

  for (int threads : {1, 2, 8}) {
    BatchRunner runner({.threads = threads});
    const std::vector<SimResult> results = runner.RunSimulations(jobs);
    ASSERT_EQ(results.size(), built.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(serial[i], Fingerprint(built[i], results[i]))
          << "batch run diverged from the serial loop: seed=" << i
          << " threads=" << threads;
    }
  }
}

TEST(SimDeterminismTest, FuzzSweepMatchesSerialHarness) {
  // The routed check/fuzz sweep must agree with one-at-a-time RunFuzzSeed —
  // outcome summaries are the bytes the CI fuzz tier keys on.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 24; ++s) seeds.push_back(s);
  std::vector<check::FuzzOutcome> serial;
  serial.reserve(seeds.size());
  for (std::uint64_t s : seeds) serial.push_back(check::RunFuzzSeed(s));

  for (int threads : {2, 8}) {
    const std::vector<check::FuzzOutcome> swept = check::RunFuzzSweep(seeds, threads);
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
      EXPECT_EQ(serial[i].ok(), swept[i].ok()) << "seed=" << seeds[i];
      EXPECT_EQ(serial[i].Summary(), swept[i].Summary()) << "seed=" << seeds[i];
      EXPECT_EQ(serial[i].simulated_makespan, swept[i].simulated_makespan)
          << "seed=" << seeds[i];
      EXPECT_EQ(serial[i].peak_at_m, swept[i].peak_at_m) << "seed=" << seeds[i];
    }
  }
}

}  // namespace
}  // namespace dapple::sim
