// Exhaustive equivalence sweep: on every small instance (≤ 4 devices,
// ≤ 6 layers) the DP planner must find exactly the brute-force optimum,
// not merely stay within a factor of it. The models are compute-heavy
// (small parameter counts, so gradient sync never dominates), where every
// optimal plan uses all devices — the family on which the DP's
// all-free-devices final stage is lossless and the memoization must be
// exact. Pruning is disabled so any gap is the canonicalization itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fault/degrade.h"
#include "model/zoo.h"
#include "planner/bruteforce.h"
#include "planner/dp_planner.h"
#include "planner/plan_io.h"
#include "topo/assignment.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

std::vector<topo::Cluster> SmallClusters() {
  std::vector<topo::Cluster> clusters;
  for (int servers = 2; servers <= 4; ++servers) {
    clusters.push_back(topo::MakeConfigB(servers));
  }
  clusters.push_back(topo::MakeConfigC(3));
  // Multi-GPU servers: the three placement policies produce genuinely
  // different device sets here (NVLink inside, Ethernet across).
  clusters.push_back(topo::Cluster("2x2", 2, 2, topo::DeviceSpec{},
                                   topo::InterconnectSpec{}));
  return clusters;
}

std::vector<model::ModelProfile> SmallModels(int layers) {
  std::vector<model::ModelProfile> models;
  models.push_back(model::MakeUniformSynthetic(layers, 0.01, 0.02, 1_MiB, 2'000'000, 1));
  // Skewed compute: late layers 3x the early ones, pushing the optimal
  // split point off-center.
  std::vector<model::LayerProfile> list;
  for (int i = 0; i < layers; ++i) {
    model::LayerProfile l;
    l.name = "s" + std::to_string(i);
    l.forward_time = i < layers / 2 ? 0.005 : 0.015;
    l.backward_time = l.forward_time * 2;
    l.output_activation = 1_MiB;
    l.activation_memory = 2_MiB;
    l.param_count = 1'500'000;
    list.push_back(std::move(l));
  }
  models.emplace_back("skewed", std::move(list), 1, model::OptimizerKind::kSGD);
  return models;
}

TEST(PlannerEquivalenceTest, DpMatchesBruteForceOnAllSmallInstances) {
  int instances = 0;
  for (const topo::Cluster& cluster : SmallClusters()) {
    for (int layers = 2; layers <= 6; ++layers) {
      for (const model::ModelProfile& m : SmallModels(layers)) {
        const int max_stages = std::min({layers, cluster.num_devices(), 4});

        BruteForceOptions bf;
        bf.global_batch_size = 8;
        bf.max_stages = max_stages;
        const PlanResult optimal = BruteForcePlanner(m, cluster, bf).Plan();

        PlannerOptions dp;
        dp.global_batch_size = 8;
        dp.max_stages = max_stages;
        dp.prune_slack = 0;  // no pruning: test the memoization alone
        const PlanResult ours = DapplePlanner(m, cluster, dp).Plan();

        EXPECT_NEAR(ours.estimate.latency, optimal.estimate.latency, 1e-9)
            << m.name() << " x" << layers << "L on " << cluster.name() << ": dp="
            << ours.plan.ToString() << " optimal=" << optimal.plan.ToString();
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 50);  // 5 clusters x 5 layer counts x 2 models
}

TEST(PlannerEquivalenceTest, ParallelSearchMatchesBruteForceToo) {
  // The brute-force equivalence holds through the parallel code path as
  // well: 8 worker threads, memo cache on, same optimum to the bit. This is
  // stronger than the determinism sweep (parallel == serial) because the
  // reference here is an independent enumerator, not the serial DP.
  int instances = 0;
  for (const topo::Cluster& cluster : SmallClusters()) {
    for (int layers = 3; layers <= 6; layers += 3) {
      for (const model::ModelProfile& m : SmallModels(layers)) {
        const int max_stages = std::min({layers, cluster.num_devices(), 4});

        BruteForceOptions bf;
        bf.global_batch_size = 8;
        bf.max_stages = max_stages;
        const PlanResult optimal = BruteForcePlanner(m, cluster, bf).Plan();

        PlannerOptions dp;
        dp.global_batch_size = 8;
        dp.max_stages = max_stages;
        dp.prune_slack = 0;
        dp.num_threads = 8;
        const PlanResult ours = DapplePlanner(m, cluster, dp).Plan();

        EXPECT_NEAR(ours.estimate.latency, optimal.estimate.latency, 1e-9)
            << m.name() << " x" << layers << "L on " << cluster.name()
            << " (8 threads): dp=" << ours.plan.ToString()
            << " optimal=" << optimal.plan.ToString();
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 20);  // 5 clusters x 2 layer counts x 2 models
}

TEST(PlannerEquivalenceTest, DegradedClusterWithDeadServerStaysOptimal) {
  // Elastic replan edge case: a whole server dies, the fault layer builds a
  // dense survivor cluster, and the planner re-runs on it. The replan must
  // still be the exact optimum for the degraded topology — through both the
  // serial and the parallel path. A 3-server Config-B cluster losing one
  // server leaves an asymmetric 2-device remainder, the shape a buggy
  // canonicalization would mishandle.
  const topo::Cluster cluster = topo::MakeConfigB(3);
  const auto m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 2'000'000, 1);

  for (topo::DeviceId dead = 0; dead < cluster.num_devices(); ++dead) {
    fault::ClusterState state;
    state.device_dead.assign(static_cast<std::size_t>(cluster.num_devices()), false);
    state.device_dead[static_cast<std::size_t>(dead)] = true;
    state.server_compute.assign(static_cast<std::size_t>(cluster.num_servers()), 1.0);
    state.server_bandwidth.assign(static_cast<std::size_t>(cluster.num_servers()), 1.0);
    state.server_extra_latency.assign(static_cast<std::size_t>(cluster.num_servers()), 0.0);
    const fault::DegradedCluster degraded = fault::MakeDegradedCluster(cluster, state);
    ASSERT_TRUE(degraded.feasible);
    ASSERT_EQ(degraded.cluster.num_devices(), cluster.num_devices() - 1);

    BruteForceOptions bf;
    bf.global_batch_size = 8;
    bf.max_stages = 2;
    const PlanResult optimal = BruteForcePlanner(m, degraded.cluster, bf).Plan();

    for (int threads : {1, 8}) {
      PlannerOptions dp;
      dp.global_batch_size = 8;
      dp.max_stages = 2;
      dp.prune_slack = 0;
      dp.num_threads = threads;
      const PlanResult ours = DapplePlanner(m, degraded.cluster, dp).Plan();
      EXPECT_NEAR(ours.estimate.latency, optimal.estimate.latency, 1e-9)
          << "dead device " << dead << ", " << threads
          << " threads: dp=" << ours.plan.ToString()
          << " optimal=" << optimal.plan.ToString();
    }
  }
}

TEST(PlannerEquivalenceTest, EverySinglePolicyRestrictionIsAlsoOptimalForIt) {
  // Restricting the DP to one placement policy must still match a brute
  // force restricted the same way — the memoization may not conflate
  // states that only a missing policy could distinguish.
  const auto m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 2'000'000, 1);
  const topo::Cluster cluster("2x2", 2, 2, topo::DeviceSpec{}, topo::InterconnectSpec{});

  BruteForceOptions bf;
  bf.global_batch_size = 8;
  bf.max_stages = 4;
  const PlanResult optimal = BruteForcePlanner(m, cluster, bf).Plan();

  TimeSec best_restricted = std::numeric_limits<TimeSec>::infinity();
  for (topo::PlacementPolicy policy : topo::AllPlacementPolicies()) {
    PlannerOptions dp;
    dp.global_batch_size = 8;
    dp.max_stages = 4;
    dp.prune_slack = 0;
    dp.policies = {policy};
    const PlanResult ours = DapplePlanner(m, cluster, dp).Plan();
    EXPECT_TRUE(ours.estimate.feasible) << topo::ToString(policy);
    // A restricted search can never beat the full-policy optimum.
    EXPECT_GE(ours.estimate.latency, optimal.estimate.latency - 1e-12)
        << topo::ToString(policy);
    best_restricted = std::min(best_restricted, ours.estimate.latency);
  }
  // And the best single policy must recover it (the full search is just
  // the union of the three restrictions).
  EXPECT_NEAR(best_restricted, optimal.estimate.latency, 1e-9);
}

TEST(PlannerEquivalenceTest, DefaultPruneKeepsTableVWinnersAndAlternatives) {
  // Every other case here searches with prune_slack = 0. The default search
  // prunes (prune_slack 2.0); on the 18 Table V instances (6 models x
  // Configs A/B/C at 16 devices) it must keep the unpruned search's winner
  // and its whole alternatives list, bit for bit.
  struct Row {
    const char* model;
    long gbs;
  };
  const Row rows[] = {{"ResNet-50", 2048}, {"VGG-19", 2048},  {"GNMT-16", 1024},
                      {"BERT-48", 64},     {"XLNet-36", 128}, {"AmoebaNet-36", 128}};
  auto render = [](const PlanResult& r) {
    auto line = [](const ParallelPlan& plan, const PlanEstimate& estimate) {
      return SerializePlan(plan) +
             std::to_string(std::bit_cast<std::uint64_t>(estimate.latency)) + "\n";
    };
    std::string text = line(r.plan, r.estimate) + "--\n";
    for (const auto& [plan, estimate] : r.alternatives) text += line(plan, estimate);
    return text;
  };
  for (const Row& row : rows) {
    const model::ModelProfile m = model::ModelByName(row.model);
    for (char config : {'A', 'B', 'C'}) {
      const topo::Cluster cluster =
          config == 'A' ? topo::MakeConfigA(2) : topo::MakeConfig(config, 16);
      PlannerOptions pruned;
      pruned.global_batch_size = row.gbs;
      PlannerOptions unpruned = pruned;
      unpruned.prune_slack = 0;
      const PlanResult a = DapplePlanner(m, cluster, pruned).Plan();
      const PlanResult b = DapplePlanner(m, cluster, unpruned).Plan();
      EXPECT_EQ(a.alternatives.size(), b.alternatives.size()) << row.model << " " << config;
      EXPECT_EQ(render(a), render(b)) << row.model << " " << config;
    }
  }
}

}  // namespace
}  // namespace dapple::planner
