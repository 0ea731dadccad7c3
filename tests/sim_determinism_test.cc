// Determinism sweep for the simulation engine and ThreadPool fan-out:
// across a seeded set of fuzz-generated pipelines, sim::Engine (both its
// thread-local Engine::Run path and a reused Engine fed a SoaGraph view)
// and a ThreadPool Map at every thread count must produce chrome traces, iteration
// reports and memory high-water marks byte-identical to the reference
// engine (legacy ordered-set/priority-queue containers) — fault-free and
// under fault speed profiles alike. The engine is deterministic by
// construction — explicit (priority, id) dispatch and (time, priority, id)
// completion keys, thread-local arenas, slot-indexed batch results; this
// sweep is the regression net around that construction, the simulator
// mirror of planner_determinism_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "fuzz_env.h"
#include "common/thread_pool.h"
#include "obs/report.h"
#include "runtime/graph_builder.h"
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
  return static_cast<int>(std::max(200L, EnvFuzzIterations(200)));
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

    // The SoaGraph view path must agree with Engine::Run.
    const SoaGraph view(built.graph);
    ASSERT_EQ(reference, Fingerprint(built, engine.Simulate(view, built.engine_options)))
        << "engine fed a SoaGraph view diverged: seed=" << seed << " "
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

TEST(SimDeterminismTest, PoolMapMatchesSerialAtEveryThreadCount) {
  const int instances = SweepInstances();

  // Build every pipeline once; the pool bodies borrow the graphs.
  std::vector<runtime::BuiltPipeline> built;
  built.reserve(static_cast<std::size_t>(instances));
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    built.push_back(runtime::GraphBuilder(c.model, c.cluster, c.plan, c.options).Build());
  }

  std::vector<SimFingerprint> serial;
  serial.reserve(built.size());
  for (const runtime::BuiltPipeline& b : built) {
    serial.push_back(Fingerprint(b, Engine::Run(b.graph, b.engine_options)));
  }

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    const std::vector<SimResult> results = pool.Map<SimResult>(built.size(), [&](std::size_t i) {
      return Engine::Run(built[i].graph, built[i].engine_options);
    });
    ASSERT_EQ(results.size(), built.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(serial[i], Fingerprint(built[i], results[i]))
          << "batch run diverged from the serial loop: seed=" << i
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dapple::sim
