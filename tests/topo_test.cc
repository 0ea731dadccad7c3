#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::topo {
namespace {

TEST(Cluster, ConfigAMatchesTableIII) {
  const Cluster a = MakeConfigA(2);
  EXPECT_EQ(a.num_servers(), 2);
  EXPECT_EQ(a.gpus_per_server(), 8);
  EXPECT_EQ(a.num_devices(), 16);
  EXPECT_EQ(a.device().name, "V100");
  EXPECT_EQ(a.device().memory, 16ull * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(a.interconnect().inter_server_bandwidth, Gbps(25.0));
}

TEST(Cluster, ConfigBAndCAreFlat) {
  const Cluster b = MakeConfigB(16);
  const Cluster c = MakeConfigC(16);
  EXPECT_EQ(b.gpus_per_server(), 1);
  EXPECT_EQ(c.gpus_per_server(), 1);
  EXPECT_DOUBLE_EQ(b.interconnect().inter_server_bandwidth, Gbps(25.0));
  EXPECT_DOUBLE_EQ(c.interconnect().inter_server_bandwidth, Gbps(10.0));
}

TEST(Cluster, MakeConfigDispatch) {
  EXPECT_EQ(MakeConfig('A', 2).name(), "Config-A");
  EXPECT_EQ(MakeConfig('b', 4).name(), "Config-B");
  EXPECT_EQ(MakeConfig('c', 4).name(), "Config-C");
  EXPECT_THROW(MakeConfig('x', 1), Error);
}

TEST(Cluster, ServerMappingIsServerMajor) {
  const Cluster a = MakeConfigA(2);
  EXPECT_EQ(a.server_of(0), 0);
  EXPECT_EQ(a.server_of(7), 0);
  EXPECT_EQ(a.server_of(8), 1);
  EXPECT_EQ(a.server_of(15), 1);
  EXPECT_TRUE(a.same_server(0, 7));
  EXPECT_FALSE(a.same_server(7, 8));
}

TEST(Cluster, BandwidthSelectsLinkByLocality) {
  const Cluster a = MakeConfigA(2);
  EXPECT_DOUBLE_EQ(a.bandwidth(0, 1), a.interconnect().intra_server_bandwidth);
  EXPECT_DOUBLE_EQ(a.bandwidth(0, 8), a.interconnect().inter_server_bandwidth);
  EXPECT_LT(a.latency(0, 1), a.latency(0, 8));
  EXPECT_THROW(a.bandwidth(3, 3), Error);
}

TEST(Cluster, WithServersSlices) {
  const Cluster a = MakeConfigA(4);
  const Cluster sliced = a.WithServers(2);
  EXPECT_EQ(sliced.num_devices(), 16);
  EXPECT_THROW(a.WithServers(5), Error);
  EXPECT_THROW(a.WithServers(0), Error);
}

TEST(Cluster, RejectsInvalidShapes) {
  EXPECT_THROW(Cluster("bad", 0, 8, DeviceSpec{}, InterconnectSpec{}), Error);
  EXPECT_THROW(Cluster("bad", 1, 0, DeviceSpec{}, InterconnectSpec{}), Error);
}

TEST(DeviceSet, RangeAndQueries) {
  const Cluster a = MakeConfigA(2);
  const DeviceSet s = DeviceSet::Range(4, 8);  // G4..G11 spans both servers
  EXPECT_EQ(s.size(), 8);
  EXPECT_TRUE(s.contains(4));
  EXPECT_TRUE(s.contains(11));
  EXPECT_FALSE(s.contains(12));
  EXPECT_FALSE(s.SingleServer(a));
  const auto counts = s.PerServerCounts(a);
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
}

TEST(DeviceSet, SpanQueriesOnEmptySingleAndNonContiguousSets) {
  const Cluster a = MakeConfigA(2);
  EXPECT_TRUE(DeviceSet().SingleServer(a));
  EXPECT_EQ(DeviceSet().PerServerCounts(a), (std::vector<int>{0, 0}));
  EXPECT_TRUE(DeviceSet({9}).SingleServer(a));
  EXPECT_EQ(DeviceSet({9}).PerServerCounts(a), (std::vector<int>{0, 1}));
  // Non-contiguous: G9 sits between G0 and G1 in replica order.
  EXPECT_FALSE(DeviceSet({0, 9, 1}).SingleServer(a));
  EXPECT_EQ(DeviceSet({0, 9, 1}).PerServerCounts(a), (std::vector<int>{2, 1}));
  EXPECT_TRUE(DeviceSet({0, 2, 4}).SingleServer(a));
  EXPECT_EQ(DeviceSet({0, 2, 4}).PerServerCounts(a), (std::vector<int>{3, 0}));
  EXPECT_TRUE(DeviceSet({14, 9}).SingleServer(a));
}

TEST(DeviceSet, RejectsDuplicates) {
  EXPECT_THROW(DeviceSet({1, 2, 1}), dapple::Error);
  EXPECT_THROW(DeviceSet({-1}), dapple::Error);
}

std::string ConstructionError(std::vector<DeviceId> ids) {
  try {
    DeviceSet set(std::move(ids));
  } catch (const dapple::Error& e) {
    return e.what();
  }
  return "";
}

TEST(DeviceSet, ChecksEachDeviceInOrder) {
  // Elements are checked one at a time, sign first: the duplicate at index
  // 1 is reported before the negative id behind it, and vice versa.
  const std::string dup = ConstructionError({3, 3, -1});
  EXPECT_NE(dup.find("duplicate device 3 in set"), std::string::npos) << dup;
  EXPECT_EQ(dup.find("negative"), std::string::npos) << dup;
  const std::string neg = ConstructionError({-1, 2, 2});
  EXPECT_NE(neg.find("(-1 vs 0) negative device id"), std::string::npos) << neg;
  EXPECT_EQ(neg.find("duplicate"), std::string::npos) << neg;
}

TEST(DeviceSet, ToStringFormats) {
  EXPECT_EQ(DeviceSet::Range(0, 8).ToString(), "[G0-G7]");
  EXPECT_EQ(DeviceSet({0, 2, 4}).ToString(), "[G0,G2,G4]");
  EXPECT_EQ(DeviceSet({5}).ToString(), "[G5]");
  EXPECT_EQ(DeviceSet().ToString(), "[]");
}

}  // namespace
}  // namespace dapple::topo
