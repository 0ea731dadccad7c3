#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/cost_model.h"
#include "topo/cluster.h"

namespace dapple::comm {
namespace {

using topo::Cluster;
using topo::DeviceSet;
using topo::MakeConfigA;
using topo::MakeConfigB;

TEST(CostModel, P2PRespectsLocality) {
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  const Bytes bytes = 100_MiB;
  const TimeSec intra = cost.P2P(0, 1, bytes);
  const TimeSec inter = cost.P2P(0, 8, bytes);
  EXPECT_LT(intra, inter);
  // 100 MiB over 25 Gbps ~ 33.6 ms dominates overheads.
  EXPECT_NEAR(inter, static_cast<double>(bytes) / Gbps(25.0), 1e-3);
  EXPECT_EQ(cost.P2P(0, 0, bytes), 0.0);
  EXPECT_EQ(cost.P2P(0, 1, 0), 0.0);
}

TEST(CostModel, RingAllReduceMatchesClosedForm) {
  const Cluster a = MakeConfigA(1);
  CostModel cost(a);
  const DeviceSet ring = DeviceSet::Range(0, 4);
  const Bytes bytes = 1_GiB;
  const double expected_volume = 2.0 * 3.0 / 4.0 * static_cast<double>(bytes);
  const TimeSec t = cost.RingAllReduce(ring, bytes);
  EXPECT_NEAR(t, expected_volume / GBps(130.0), 1e-3);
}

TEST(CostModel, AllReduceZeroForTrivialCases) {
  const Cluster a = MakeConfigA(1);
  CostModel cost(a);
  EXPECT_EQ(cost.AllReduce(DeviceSet::Range(0, 1), 1_GiB), 0.0);
  EXPECT_EQ(cost.AllReduce(DeviceSet::Range(0, 4), 0), 0.0);
}

TEST(CostModel, HierarchicalBeatsFlatRingAcrossServers) {
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  const DeviceSet span = DeviceSet::Range(0, 16);
  const Bytes bytes = 1_GiB;
  const TimeSec ring = cost.RingAllReduce(span, bytes);
  const TimeSec hier = cost.HierarchicalAllReduce(span, bytes);
  // Flat ring is bottlenecked by Ethernet for the full 2(n-1)/n volume;
  // hierarchical only sends 2(k-1)/k over Ethernet.
  EXPECT_LT(hier, ring);
  // NCCL-2.4-era default: flat ring.
  EXPECT_DOUBLE_EQ(cost.AllReduce(span, bytes), ring);
  CostModelOptions opt;
  opt.enable_hierarchical = true;
  EXPECT_DOUBLE_EQ(CostModel(a, opt).AllReduce(span, bytes), hier);
}

TEST(CostModel, HierarchicalFallsBackToRingWithinServer) {
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  const DeviceSet local = DeviceSet::Range(0, 8);
  EXPECT_DOUBLE_EQ(cost.HierarchicalAllReduce(local, 1_GiB),
                   cost.RingAllReduce(local, 1_GiB));
}

// The AllReduce formulas as written before they were bound to a set, in
// their original expression order, so the bound object is pinned to them
// bit for bit.
TimeSec RingReference(const Cluster& cluster, const DeviceSet& devices, Bytes bytes) {
  const int n = devices.size();
  if (n < 2 || bytes == 0) return 0.0;
  const BytesPerSec bw = devices.BottleneckBandwidth(cluster);
  const TimeSec lat = devices.MaxLatency(cluster);
  const double steps = 2.0 * (n - 1);
  const double volume = 2.0 * static_cast<double>(n - 1) / n * static_cast<double>(bytes);
  return CostModelOptions{}.collective_launch_overhead + steps * lat + volume / bw;
}

TimeSec HierarchicalReference(const Cluster& cluster, const DeviceSet& devices,
                              Bytes bytes) {
  const int n = devices.size();
  if (n < 2 || bytes == 0) return 0.0;
  int servers_used = 0;
  int max_per_server = 0;
  for (int c : devices.PerServerCounts(cluster)) {
    if (c > 0) ++servers_used;
    max_per_server = std::max(max_per_server, c);
  }
  if (servers_used <= 1) return RingReference(cluster, devices, bytes);
  const auto& net = cluster.interconnect();
  TimeSec total = CostModelOptions{}.collective_launch_overhead;
  if (max_per_server > 1) {
    const double m = max_per_server;
    total += (m - 1.0) / m * static_cast<double>(bytes) / net.intra_server_bandwidth +
             (m - 1.0) * net.intra_server_latency;
  }
  {
    const double k = servers_used;
    total += 2.0 * (k - 1.0) / k * static_cast<double>(bytes) / net.inter_server_bandwidth +
             2.0 * (k - 1.0) * net.inter_server_latency;
  }
  if (max_per_server > 1) {
    const double m = max_per_server;
    total += (m - 1.0) / m * static_cast<double>(bytes) / net.intra_server_bandwidth +
             (m - 1.0) * net.intra_server_latency;
  }
  return total;
}

std::uint64_t Bits(TimeSec t) { return std::bit_cast<std::uint64_t>(t); }

TEST(CostModel, BoundAllReduceMatchesEveryEntryPointBitForBit) {
  const Cluster a = MakeConfigA(2);
  const std::vector<Cluster> clusters = {a, a.WithServerSpeeds({1.0, 0.5}), MakeConfigB(16)};
  const std::vector<DeviceSet> sets = {
      DeviceSet(),          DeviceSet({5}),          DeviceSet({0, 1}),
      DeviceSet::Range(0, 8), DeviceSet::Range(4, 8), DeviceSet({0, 9, 1}),
      DeviceSet::Range(0, 16)};
  const std::vector<Bytes> sizes = {0, 1, 1_MiB + 7, 1_GiB};
  for (const Cluster& cluster : clusters) {
    for (const bool hierarchical : {false, true}) {
      CostModelOptions options;
      options.enable_hierarchical = hierarchical;
      const CostModel cost(cluster, options);
      for (const DeviceSet& set : sets) {
        const auto& ids = set.devices();
        if (!ids.empty() && *std::max_element(ids.begin(), ids.end()) >= cluster.num_devices()) {
          continue;
        }
        const BoundAllReduce bound = cost.AllReduceOver(set);
        for (const Bytes bytes : sizes) {
          SCOPED_TRACE(cluster.name() + " " + set.ToString() + " " + std::to_string(bytes) +
                       (hierarchical ? " hierarchical" : " ring"));
          const TimeSec ring = RingReference(cluster, set, bytes);
          const TimeSec hier = HierarchicalReference(cluster, set, bytes);
          EXPECT_EQ(Bits(cost.RingAllReduce(set, bytes)), Bits(ring));
          EXPECT_EQ(Bits(cost.HierarchicalAllReduce(set, bytes)), Bits(hier));
          const TimeSec best = hierarchical ? std::min(ring, hier) : ring;
          EXPECT_EQ(Bits(bound(bytes)), Bits(best));
          EXPECT_EQ(Bits(cost.AllReduce(set, bytes)), Bits(best));
        }
      }
    }
  }
}

TEST(CostModel, AllReduceMonotoneInSize) {
  const Cluster b = MakeConfigB(8);
  CostModel cost(b);
  const DeviceSet devices = DeviceSet::Range(0, 8);
  TimeSec prev = 0.0;
  for (Bytes bytes : {1_MiB, 16_MiB, 256_MiB, 1_GiB}) {
    const TimeSec t = cost.AllReduce(devices, bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, CrossStageUsesWorstLink) {
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  const Bytes act = 26_MiB;  // GNMT boundary traffic (Table I)
  const TimeSec same_server =
      cost.CrossStage(DeviceSet::Range(0, 4), DeviceSet::Range(4, 4), act);
  const TimeSec cross_server =
      cost.CrossStage(DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), act);
  EXPECT_LT(same_server, cross_server);
}

TEST(CostModel, CrossStageParallelizesOverReplicas) {
  const Cluster b = MakeConfigB(16);
  CostModel cost(b);
  const Bytes act = 64_MiB;
  // 8 senders each ship act/8: faster than 1 sender shipping act.
  const TimeSec wide =
      cost.CrossStage(DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), act);
  const TimeSec narrow =
      cost.CrossStage(DeviceSet::Range(0, 1), DeviceSet::Range(1, 1), act);
  EXPECT_LT(wide, narrow);
}

TEST(CostModel, CrossStageChargesSplitConcatOnlyWhenUnequal) {
  const Cluster a = MakeConfigA(2);
  CostModelOptions slow_memcpy;
  slow_memcpy.memcpy_bandwidth = GBps(10.0);  // make staging visible
  CostModel cost(a, slow_memcpy);
  const Bytes act = 64_MiB;
  const TimeSec equal =
      cost.CrossStage(DeviceSet::Range(0, 4), DeviceSet::Range(8, 4), act);
  const TimeSec unequal =
      cost.CrossStage(DeviceSet::Range(0, 4), DeviceSet::Range(8, 2), act);
  // Many-to-one needs concat staging AND moves bigger per-endpoint slices.
  EXPECT_GT(unequal, equal);
}

TEST(CostModel, CrossStageZeroBytesIsFree) {
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  EXPECT_EQ(cost.CrossStage(DeviceSet::Range(0, 1), DeviceSet::Range(1, 1), 0), 0.0);
}

TEST(CostModel, TableITrafficAsymmetry) {
  // The paper's Table I motivation: boundary activations are MBs while
  // gradients are GBs, so the hybrid plan keeps AllReduce on NVLink and
  // lets only activations cross Ethernet. Verify the cost asymmetry.
  const Cluster a = MakeConfigA(2);
  CostModel cost(a);
  const TimeSec act_cross =
      cost.CrossStage(DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), 9_MiB);
  const TimeSec grads_nvlink = cost.AllReduce(DeviceSet::Range(0, 8), MiB(2800));
  const TimeSec grads_ethernet = cost.AllReduce(
      DeviceSet({0, 1, 2, 3, 8, 9, 10, 11}), MiB(2800));
  EXPECT_LT(act_cross, grads_nvlink);
  EXPECT_LT(grads_nvlink, grads_ethernet);
}

}  // namespace
}  // namespace dapple::comm
