// Tests for the three topology-aware placement policies of paper §IV-B
// (Fig. 5): Fresh First, Append First, Scatter First.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fault/degrade.h"
#include "topo/assignment.h"

namespace dapple::topo {
namespace {

// Reproduces Fig. 5's setup: 3 machines of 8 GPUs; machine 0 already has 4
// GPUs occupied (G0-G3); then 6 devices are requested under each policy.
class Fig5Scenario : public ::testing::Test {
 protected:
  Fig5Scenario() : cluster_(MakeConfigA(3)), state_(cluster_) {
    state_.Commit(DeviceSet::Range(0, 4));
  }
  Cluster cluster_;
  AllocationState state_;
};

TEST_F(Fig5Scenario, FreshFirstPrefersUnusedMachine) {
  const auto set = state_.Plan(PlacementPolicy::kFreshFirst, 6);
  ASSERT_TRUE(set.has_value());
  // All six land on a fresh machine (machine 1, the first fresh one).
  for (DeviceId d : set->devices()) {
    EXPECT_EQ(cluster_.server_of(d), 1);
  }
}

TEST_F(Fig5Scenario, AppendFirstConsumesFragmentsFirst)
{
  const auto set = state_.Plan(PlacementPolicy::kAppendFirst, 6);
  ASSERT_TRUE(set.has_value());
  // Machine 0's 4 free GPUs (G4-G7) first, overflowing onto machine 1.
  const auto counts = set->PerServerCounts(cluster_);
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 0);
  EXPECT_TRUE(set->contains(4));
  EXPECT_TRUE(set->contains(7));
}

TEST_F(Fig5Scenario, ScatterFirstUsesPartiallyUsedMachinesFirst) {
  const auto set = state_.Plan(PlacementPolicy::kScatterFirst, 2);
  ASSERT_TRUE(set.has_value());
  // Machine 0 is the only partially used machine: scatter draws from it.
  const auto counts = set->PerServerCounts(cluster_);
  EXPECT_EQ(counts[0], 2);
}

TEST(ScatterFirst, SpreadsEvenlyOnFreshCluster) {
  const Cluster cluster = MakeConfigA(4);
  AllocationState state(cluster);
  const auto set = state.Plan(PlacementPolicy::kScatterFirst, 8);
  ASSERT_TRUE(set.has_value());
  const auto counts = set->PerServerCounts(cluster);
  for (int c : counts) EXPECT_EQ(c, 2);
}

TEST(FreshFirst, FillsWholeMachinesInOrder) {
  const Cluster cluster = MakeConfigA(2);
  AllocationState state(cluster);
  const auto set = state.Plan(PlacementPolicy::kFreshFirst, 8);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(*set, DeviceSet::Range(0, 8));
}

TEST(AllocationState, PlanDoesNotMutate) {
  const Cluster cluster = MakeConfigA(1);
  AllocationState state(cluster);
  (void)state.Plan(PlacementPolicy::kFreshFirst, 4);
  EXPECT_EQ(state.num_free(), 8);
}

TEST(AllocationState, AllocateCommits) {
  const Cluster cluster = MakeConfigA(1);
  AllocationState state(cluster);
  const auto set = state.Plan(PlacementPolicy::kFreshFirst, 3);
  ASSERT_TRUE(set.has_value());
  state.Commit(*set);
  EXPECT_EQ(state.num_free(), 5);
  for (DeviceId d : set->devices()) EXPECT_TRUE(state.is_used(d));
}

TEST(AllocationState, OverCommitRejected) {
  const Cluster cluster = MakeConfigB(2);
  AllocationState state(cluster);
  EXPECT_FALSE(state.Plan(PlacementPolicy::kFreshFirst, 3).has_value());
  state.Commit(DeviceSet({0}));
  EXPECT_THROW(state.Commit(DeviceSet({0})), dapple::Error);
}

TEST(AllocationState, CommitTracksOccupancy) {
  const Cluster cluster = MakeConfigB(3);
  AllocationState state(cluster);
  for (DeviceId d = 0; d < 3; ++d) EXPECT_FALSE(state.is_used(d));
  state.Commit(DeviceSet({1}));
  EXPECT_FALSE(state.is_used(0));
  EXPECT_TRUE(state.is_used(1));
  EXPECT_FALSE(state.is_used(2));
  EXPECT_EQ(state.used_on_server(1), 1);
  EXPECT_EQ(state.num_free(), 2);
}

TEST(AllocationState, DeterministicLowestFreeFirst) {
  const Cluster cluster = MakeConfigA(1);
  AllocationState state(cluster);
  state.Commit(DeviceSet({0, 2}));
  const auto set = state.Plan(PlacementPolicy::kAppendFirst, 3);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->devices(), (std::vector<DeviceId>{1, 3, 4}));
}

// Every policy must satisfy any request that fits, on any occupancy.
class PolicyExhaustionTest
    : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PolicyExhaustionTest, SatisfiesAnyFittingRequest) {
  const Cluster cluster = MakeConfigA(3);
  for (int pre = 0; pre <= 16; pre += 4) {
    AllocationState state(cluster);
    if (pre > 0) state.Commit(DeviceSet::Range(0, pre));
    for (int n = 1; n <= state.num_free(); ++n) {
      const auto set = state.Plan(GetParam(), n);
      ASSERT_TRUE(set.has_value()) << ToString(GetParam()) << " n=" << n << " pre=" << pre;
      EXPECT_EQ(set->size(), n);
      for (DeviceId d : set->devices()) EXPECT_FALSE(state.is_used(d));
    }
    EXPECT_FALSE(state.Plan(GetParam(), state.num_free() + 1).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyExhaustionTest,
                         ::testing::ValuesIn(AllPlacementPolicies()),
                         [](const auto& info) { return ToString(info.param); });

TEST(Policies, NamesAreStable) {
  EXPECT_EQ(ToString(PlacementPolicy::kFreshFirst), "FreshFirst");
  EXPECT_EQ(ToString(PlacementPolicy::kAppendFirst), "AppendFirst");
  EXPECT_EQ(ToString(PlacementPolicy::kScatterFirst), "ScatterFirst");
  EXPECT_EQ(AllPlacementPolicies().size(), 3u);
}

// Seeded random occupancies on every cluster shape the planner sees: flat
// and 8-GPU homogeneous configs, per-server speeds and a degraded cluster
// (a drained server, a straggler). Half the states are built the way the
// planner builds them, from policy placements; half are scattered devices.
std::vector<AllocationState> RandomStates(const Cluster& cluster, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AllocationState> states;
  for (int i = 0; i < 24; ++i) {
    AllocationState state(cluster);
    const auto target = static_cast<int>(rng.Fork() % static_cast<std::uint64_t>(
                                              cluster.num_devices()));
    while (cluster.num_devices() - state.num_free() < target) {
      if (i % 2 == 0) {
        const PlacementPolicy policy = AllPlacementPolicies()[rng.Fork() % 3];
        const int left = target - (cluster.num_devices() - state.num_free());
        const auto n = 1 + static_cast<int>(rng.Fork() % static_cast<std::uint64_t>(left));
        state.Commit(*state.Plan(policy, n));
      } else {
        const auto d = static_cast<DeviceId>(rng.Fork() % static_cast<std::uint64_t>(
                                                 cluster.num_devices()));
        if (!state.is_used(d)) state.Commit(DeviceSet({d}));
      }
    }
    states.push_back(state);
  }
  return states;
}

std::vector<Cluster> PlacementClusters() {
  const Cluster four = MakeConfigA(4);
  fault::ClusterState degraded;
  degraded.device_dead.assign(static_cast<std::size_t>(four.num_devices()), false);
  degraded.device_dead[9] = true;
  degraded.server_compute = {1.0, 1.0, 0.5, 1.0};
  degraded.server_bandwidth.assign(4, 1.0);
  degraded.server_extra_latency.assign(4, 0.0);
  return {MakeConfigA(3),
          MakeConfigB(6),
          MakeConfigC(5),
          four.WithServerSpeeds({1.0, 0.5, 2.0, 0.5}),
          fault::MakeDegradedCluster(four, degraded).cluster};
}

TEST(PlacementOrder, PlanResultsArePinned) {
  // FNV-1a over every Plan result (or a miss marker) for every policy and
  // every size up to one past the free count.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](std::int32_t v) {
    for (int b = 0; b < 4; ++b) {
      digest ^= static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * b));
      digest *= 0x100000001b3ull;
    }
  };
  std::uint64_t seed = 1;
  for (const Cluster& cluster : PlacementClusters()) {
    for (const AllocationState& state : RandomStates(cluster, seed++)) {
      for (PlacementPolicy policy : AllPlacementPolicies()) {
        for (int n = 1; n <= state.num_free() + 1; ++n) {
          const auto set = state.Plan(policy, n);
          mix(n);
          if (!set) {
            mix(-1);
            continue;
          }
          for (DeviceId d : set->devices()) mix(d);
        }
      }
    }
  }
  EXPECT_EQ(digest, 5967758828252134932ull);
}

TEST(PlacementOrder, PlanIsAPrefixOfPlanOrder) {
  // The planner reads every size's placement from at most two orders per
  // policy: the one for size 1 and, past its length, the next one.
  std::uint64_t seed = 1;
  for (const Cluster& cluster : PlacementClusters()) {
    for (const AllocationState& state : RandomStates(cluster, seed++)) {
      for (PlacementPolicy policy : AllPlacementPolicies()) {
        const std::vector<DeviceId> small = state.PlanOrder(policy, 1);
        const std::vector<DeviceId> large =
            state.PlanOrder(policy, static_cast<int>(small.size()) + 1);
        for (int n = 1; n <= state.num_free(); ++n) {
          const auto set = state.Plan(policy, n);
          ASSERT_TRUE(set.has_value());
          const std::vector<DeviceId>& order =
              n <= static_cast<int>(small.size()) ? small : large;
          EXPECT_EQ(state.PlanOrder(policy, n), order) << ToString(policy) << " n=" << n;
          ASSERT_GE(static_cast<int>(order.size()), n) << ToString(policy) << " n=" << n;
          EXPECT_EQ(set->devices(), std::vector<DeviceId>(order.begin(), order.begin() + n))
              << ToString(policy) << " n=" << n << " on " << cluster.name();
        }
      }
    }
  }
}

TEST(PlacementOrder, CarvesKeepEachServersUsedDevicesAPrefix) {
  // Every policy hands a server's lowest free device out first, so carves
  // from an empty cluster leave each server's used devices a prefix of its
  // ids, and the state is a function of the per-server used counts alone:
  // the planner's placement memo is keyed by them. A state rebuilt from the
  // counts must hand out exactly what the carved state does.
  const Cluster four = MakeConfigA(4);
  long compared = 0;
  for (const Cluster& cluster : {four, four.WithServerSpeeds({1.0, 0.5, 2.0, 0.75}),
                                 four.WithServers(2), MakeConfigB(6)}) {
    SCOPED_TRACE(cluster.name() + " on " + std::to_string(cluster.num_devices()) + " devices");
    const int per = cluster.gpus_per_server();
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      Rng rng(seed);
      AllocationState state(cluster);
      while (state.num_free() > 0) {
        const PlacementPolicy policy = AllPlacementPolicies()[rng.Fork() % 3];
        const auto n = 1 + static_cast<int>(rng.Fork() % static_cast<std::uint64_t>(
                                                state.num_free()));
        state.Commit(*state.Plan(policy, n));
        std::vector<int> used;
        for (ServerId s = 0; s < cluster.num_servers(); ++s) {
          used.push_back(state.used_on_server(s));
          for (DeviceId d = s * per; d < (s + 1) * per; ++d) {
            ASSERT_EQ(state.is_used(d), d - s * per < used.back())
                << "G" << d << " after " << ToString(policy) << " n=" << n << " seed=" << seed;
          }
        }
        const AllocationState rebuilt(cluster, used);
        ASSERT_EQ(rebuilt.num_free(), state.num_free());
        for (PlacementPolicy p : AllPlacementPolicies()) {
          for (int size = 1; size <= state.num_free(); ++size) {
            ASSERT_EQ(rebuilt.PlanOrder(p, size), state.PlanOrder(p, size))
                << ToString(p) << " size=" << size << " seed=" << seed;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
}

}  // namespace
}  // namespace dapple::topo
