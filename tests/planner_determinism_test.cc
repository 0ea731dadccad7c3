// Determinism sweep for the parallel memoized planner: across a seeded set
// of fuzz-generated (model, cluster) instances, the search must return a
// byte-identical winning plan — and identical alternatives, evaluation
// counts and bit-identical latencies — at every thread count. The parallel
// search is deterministic by construction (sequential merge in enumeration
// order, slot-indexed parallel work, pure memoized rows); this sweep is the
// regression net around that construction. A 128-device cluster plans
// through the row memo identically at one and four threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "common/error.h"
#include "model/zoo.h"
#include "planner/dp_planner.h"
#include "planner/plan_io.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

/// Everything about a search that must not depend on the thread count.
struct SearchFingerprint {
  bool feasible = false;
  std::string plan;  // SerializePlan of the winner ("" when infeasible)
  std::vector<std::string> alternatives;
  double latency = 0.0;  // compared bit-for-bit, not within a tolerance
  long evaluated = 0;

  bool operator==(const SearchFingerprint& other) const = default;
};

SearchFingerprint RunSearch(const model::ModelProfile& m, const topo::Cluster& cluster,
                            long gbs, int threads) {
  PlannerOptions options;
  options.global_batch_size = gbs;
  options.num_threads = threads;
  SearchFingerprint fp;
  try {
    const PlanResult result = DapplePlanner(m, cluster, options).Plan();
    fp.feasible = true;
    fp.plan = SerializePlan(result.plan);
    for (const auto& [alt, est] : result.alternatives) {
      (void)est;
      fp.alternatives.push_back(SerializePlan(alt));
    }
    fp.latency = result.estimate.latency;
    fp.evaluated = result.candidates_evaluated;
  } catch (const Error&) {
    // Infeasible instances stay in the sweep: every thread count must agree
    // that (and leave the fingerprint empty).
  }
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

TEST(PlannerDeterminismTest, SeededSweepIsByteIdenticalAcrossThreadCounts) {
  const int instances = SweepInstances();
  int feasible = 0;
  int multi_stage = 0;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const long gbs = c.options.global_batch_size;

    const SearchFingerprint serial = RunSearch(c.model, c.cluster, gbs, 1);
    if (serial.feasible) {
      ++feasible;
      if (serial.alternatives.size() > 1) ++multi_stage;
    }

    for (int threads : {2, 8}) {
      const SearchFingerprint parallel =
          RunSearch(c.model, c.cluster, gbs, threads);
      ASSERT_EQ(serial, parallel)
          << "thread count changed the search outcome: seed=" << seed
          << " threads=" << threads << " " << c.Describe();
    }
  }
  // The sweep must not be vacuous: most fuzz instances plan successfully
  // and keep real alternative lists.
  EXPECT_GT(feasible, instances / 2);
  EXPECT_GT(multi_stage, instances / 4);
}

TEST(PlannerDeterminismTest, SharedPoolAndDedicatedPoolAgree) {
  // num_threads = 0 (shared pool, whatever size the host gives it) must
  // also match the serial fingerprint — the default configuration is
  // covered by the same guarantee, not just explicit thread counts.
  for (std::uint64_t seed : {3u, 7u, 21u, 42u, 77u}) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const long gbs = c.options.global_batch_size;
    const SearchFingerprint serial = RunSearch(c.model, c.cluster, gbs, 1);
    const SearchFingerprint shared = RunSearch(c.model, c.cluster, gbs, 0);
    ASSERT_EQ(serial, shared) << "seed=" << seed << " " << c.Describe();
  }
}

TEST(PlannerDeterminismTest, Cluster128DevicesPlansCachedAndMatchesAcrossThreads) {
  // Row keys hold device ids, so a 128-device cluster searches through the
  // row memo: the memo is actually hit, and one and four threads agree.
  // Three stages, so second-level subproblems share their prefix rows (with
  // two, every row of a search is distinct); one placement policy keeps the
  // search small enough for the ThreadSanitizer tier.
  const model::ModelProfile m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 2'000'000, 1);
  const topo::Cluster cluster = topo::MakeConfigA(16);
  ASSERT_EQ(cluster.num_devices(), 128);
  auto plan = [&](int threads) {
    PlannerOptions options;
    options.global_batch_size = 1024;
    options.num_threads = threads;
    options.max_stages = 3;
    options.policies = {topo::PlacementPolicy::kFreshFirst};
    return DapplePlanner(m, cluster, options).Plan();
  };
  auto fingerprint = [](const PlanResult& result) {
    SearchFingerprint fp;
    fp.feasible = true;
    fp.plan = SerializePlan(result.plan);
    for (const auto& [alt, est] : result.alternatives) {
      (void)est;
      fp.alternatives.push_back(SerializePlan(alt));
    }
    fp.latency = result.estimate.latency;
    fp.evaluated = result.candidates_evaluated;
    return fp;
  };
  const PlanResult serial = plan(1);
  const PlanResult parallel = plan(4);
  EXPECT_GT(serial.stats.cache_hits, 0);
  EXPECT_GT(parallel.stats.cache_hits, 0);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

}  // namespace
}  // namespace dapple::planner
