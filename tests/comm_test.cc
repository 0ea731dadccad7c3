#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "comm/cost_model.h"
#include "topo/cluster.h"

namespace dapple::comm {
namespace {

using topo::Cluster;
using topo::DeviceSet;
using topo::MakeConfigA;
using topo::MakeConfigB;

// A ring AllReduce over `devices`, priced as the estimator prices it.
TimeSec Ring(const Cluster& cluster, const DeviceSet& devices, Bytes bytes) {
  return BoundAllReduce(cluster.interconnect(), ReplicaGroup::Of(cluster, devices))(bytes);
}

// A cross-stage transfer from `from` to `to`, priced as the estimator
// prices a boundary.
TimeSec Transfer(const Cluster& cluster, const DeviceSet& from, const DeviceSet& to,
                 Bytes bytes) {
  return BoundCrossStage(cluster.interconnect(), StageLink::Between(cluster, from, to))(bytes);
}

std::uint64_t Bits(TimeSec t) { return std::bit_cast<std::uint64_t>(t); }

TEST(CostModel, P2PRespectsLocality) {
  const Cluster a = MakeConfigA(2);
  const Bytes bytes = 100_MiB;
  const TimeSec intra = Transfer(a, DeviceSet({0}), DeviceSet({1}), bytes);
  const TimeSec inter = Transfer(a, DeviceSet({0}), DeviceSet({8}), bytes);
  EXPECT_LT(intra, inter);
  // 100 MiB over 25 Gbps ~ 33.6 ms dominates overheads.
  EXPECT_NEAR(inter, static_cast<double>(bytes) / Gbps(25.0), 1e-3);
}

TEST(CostModel, OneToOneCrossStageIsThePointToPointClosedFormBitForBit) {
  // A round-robin hop between two distinct devices is priced as a
  // one-to-one stage link; it must equal the point-to-point alpha-beta
  // form, launch + latency(a, b) + bytes / bandwidth(a, b), exactly.
  const Cluster a = MakeConfigA(2);
  for (const auto& [src, dst] : {std::pair<topo::DeviceId, topo::DeviceId>{0, 1}, {0, 8}}) {
    const bool same_server = a.same_server(src, dst);
    const BoundCrossStage hop(a.interconnect(), {1, 1, same_server, !same_server});
    for (const Bytes bytes : {Bytes{1}, 1_MiB + 7, 100_MiB}) {
      SCOPED_TRACE(std::to_string(src) + " -> " + std::to_string(dst) + " " +
                   std::to_string(bytes));
      const TimeSec closed_form = kP2PLaunchOverhead + a.latency(src, dst) +
                                  static_cast<double>(bytes) / a.bandwidth(src, dst);
      EXPECT_EQ(Bits(hop(bytes)), Bits(closed_form));
      EXPECT_EQ(Bits(Transfer(a, DeviceSet({src}), DeviceSet({dst}), bytes)), Bits(closed_form));
    }
    EXPECT_EQ(hop(0), 0.0);
  }
}

TEST(CostModel, RingAllReduceMatchesClosedForm) {
  const Cluster a = MakeConfigA(1);
  const DeviceSet ring = DeviceSet::Range(0, 4);
  const Bytes bytes = 1_GiB;
  const double expected_volume = 2.0 * 3.0 / 4.0 * static_cast<double>(bytes);
  const TimeSec t = Ring(a, ring, bytes);
  EXPECT_NEAR(t, expected_volume / GBps(130.0), 1e-3);
}

TEST(CostModel, AllReduceZeroForTrivialCases) {
  const Cluster a = MakeConfigA(1);
  EXPECT_EQ(Ring(a, DeviceSet::Range(0, 1), 1_GiB), 0.0);
  EXPECT_EQ(Ring(a, DeviceSet::Range(0, 4), 0), 0.0);
}

TEST(CostModel, AllReduceIsAFlatRingAcrossServers) {
  // NCCL 2.4.2, the paper's testbed: one flat ring whose every step is
  // bottlenecked by Ethernet once the set spans servers — the full
  // 2(n-1)/n volume crosses the slow link.
  const Cluster a = MakeConfigA(2);
  const DeviceSet span = DeviceSet::Range(0, 16);
  const Bytes bytes = 1_GiB;
  const double volume = 2.0 * 15.0 / 16.0 * static_cast<double>(bytes);
  EXPECT_NEAR(Ring(a, span, bytes), volume / Gbps(25.0), 1e-3);
  EXPECT_GT(Ring(a, span, bytes), Ring(a, DeviceSet::Range(0, 8), bytes));
}

// The ring AllReduce over the slowest link and worst latency of every pair
// in the set, in the formula's original expression order, so the bound
// object is pinned to it bit for bit.
TimeSec RingReference(const Cluster& cluster, const DeviceSet& devices, Bytes bytes) {
  const int n = devices.size();
  if (n < 2 || bytes == 0) return 0.0;
  BytesPerSec bw = std::numeric_limits<BytesPerSec>::infinity();
  TimeSec lat = 0.0;
  for (topo::DeviceId a : devices.devices()) {
    for (topo::DeviceId b : devices.devices()) {
      if (a == b) continue;
      bw = std::min(bw, cluster.bandwidth(a, b));
      lat = std::max(lat, cluster.latency(a, b));
    }
  }
  const double steps = 2.0 * (n - 1);
  const double volume = 2.0 * static_cast<double>(n - 1) / n * static_cast<double>(bytes);
  return kCollectiveLaunchOverhead + steps * lat + volume / bw;
}

TEST(CostModel, BoundAllReduceMatchesEveryEntryPointBitForBit) {
  const Cluster a = MakeConfigA(2);
  const std::vector<Cluster> clusters = {a, a.WithServerSpeeds({1.0, 0.5}), MakeConfigB(16)};
  const std::vector<DeviceSet> sets = {
      DeviceSet(),          DeviceSet({5}),          DeviceSet({0, 1}),
      DeviceSet::Range(0, 8), DeviceSet::Range(4, 8), DeviceSet({0, 9, 1}),
      DeviceSet::Range(0, 16)};
  const std::vector<Bytes> sizes = {0, 1, 1_MiB + 7, 1_GiB};
  for (const Cluster& cluster : clusters) {
    for (const DeviceSet& set : sets) {
      const auto& ids = set.devices();
      if (!ids.empty() && *std::max_element(ids.begin(), ids.end()) >= cluster.num_devices()) {
        continue;
      }
      const BoundAllReduce bound(cluster.interconnect(), ReplicaGroup::Of(cluster, set));
      for (const Bytes bytes : sizes) {
        SCOPED_TRACE(cluster.name() + " " + set.ToString() + " " + std::to_string(bytes));
        const TimeSec ring = RingReference(cluster, set, bytes);
        EXPECT_EQ(Bits(bound(bytes)), Bits(ring));
      }
    }
  }
}

// The cross-stage transfer as written before it was bound to a stage link,
// in its original expression order.
TimeSec CrossStageReference(const Cluster& cluster, const DeviceSet& from, const DeviceSet& to,
                            Bytes bytes) {
  if (bytes == 0) return 0.0;
  const double slice_out = static_cast<double>(bytes) / from.size();
  const double slice_in = static_cast<double>(bytes) / to.size();
  BytesPerSec bw = std::numeric_limits<BytesPerSec>::infinity();
  for (topo::DeviceId a : from.devices()) {
    for (topo::DeviceId b : to.devices()) {
      if (a != b) bw = std::min(bw, cluster.bandwidth(a, b));
    }
  }
  if (bw == std::numeric_limits<BytesPerSec>::infinity()) bw = kMemcpyBandwidth;
  TimeSec wire = std::max(slice_out, slice_in) / bw;
  TimeSec lat = 0.0;
  for (topo::DeviceId a : from.devices()) {
    for (topo::DeviceId b : to.devices()) {
      if (a != b) lat = std::max(lat, cluster.latency(a, b));
    }
  }
  TimeSec staging = 0.0;
  if (from.size() != to.size()) {
    staging = std::max(slice_out, slice_in) / kMemcpyBandwidth;
  }
  return kP2PLaunchOverhead + lat + wire + staging;
}

TEST(CostModel, BoundCrossStageMatchesCrossStageBitForBit) {
  const Cluster a = MakeConfigA(2);
  const std::vector<Cluster> clusters = {a, a.WithServerSpeeds({1.0, 0.5}), MakeConfigB(16)};
  const std::vector<std::pair<DeviceSet, DeviceSet>> pairs = {
      {DeviceSet({5}), DeviceSet({5})},           {DeviceSet({0}), DeviceSet({1})},
      {DeviceSet::Range(0, 4), DeviceSet::Range(4, 4)},
      {DeviceSet::Range(0, 8), DeviceSet::Range(8, 2)},
      {DeviceSet({0, 9, 1}), DeviceSet({3, 12})}, {DeviceSet::Range(0, 8), DeviceSet::Range(4, 8)},
      {DeviceSet({0, 1, 2}), DeviceSet({1, 2, 3})}, {DeviceSet({3}), DeviceSet({3, 11})},
      {DeviceSet({9, 3}), DeviceSet({3})},        {DeviceSet::Range(0, 16), DeviceSet::Range(0, 16)},
      {DeviceSet({15, 8}), DeviceSet({0, 9, 8})}};
  const std::vector<Bytes> sizes = {0, 1, 1_MiB + 7, 1_GiB};
  for (const Cluster& cluster : clusters) {
    for (const auto& [from, to] : pairs) {
      const BoundCrossStage bound(cluster.interconnect(),
                                  StageLink::Between(cluster, from, to));
      for (const Bytes bytes : sizes) {
        SCOPED_TRACE(cluster.name() + " " + from.ToString() + " -> " + to.ToString() + " " +
                     std::to_string(bytes));
        const TimeSec reference = CrossStageReference(cluster, from, to, bytes);
        EXPECT_EQ(Bits(bound(bytes)), Bits(reference));
      }
    }
  }
}

TEST(CostModel, StageLinkMatchesEveryDevicePair) {
  // The link kinds found by StageLink::Between against a scan of every
  // (from, to) pair, on random and overlapping sets. 130 single-device
  // servers fold onto 64 bits twice, so its server filter aliases.
  const std::vector<Cluster> clusters = {MakeConfigA(4), MakeConfigB(130)};
  std::mt19937_64 rng(7);
  for (const Cluster& cluster : clusters) {
    std::vector<topo::DeviceId> ids(static_cast<std::size_t>(cluster.num_devices()));
    for (std::size_t d = 0; d < ids.size(); ++d) ids[d] = static_cast<topo::DeviceId>(d);
    for (int draw = 0; draw < 2000; ++draw) {
      std::shuffle(ids.begin(), ids.end(), rng);
      const std::size_t from_size = 1 + rng() % 6;
      const std::size_t to_size = 1 + rng() % 6;
      // Every fourth draw lets the sets share devices.
      const std::size_t to_first = draw % 4 == 0 ? rng() % from_size : from_size;
      const DeviceSet from(std::vector<topo::DeviceId>(ids.begin(), ids.begin() + from_size));
      const DeviceSet to(std::vector<topo::DeviceId>(ids.begin() + to_first,
                                                     ids.begin() + to_first + to_size));
      bool intra = false;
      bool inter = false;
      for (topo::DeviceId a : from.devices()) {
        for (topo::DeviceId b : to.devices()) {
          if (a == b) continue;
          (cluster.same_server(a, b) ? intra : inter) = true;
        }
      }
      const StageLink link = StageLink::Between(cluster, from, to);
      SCOPED_TRACE(cluster.name() + " " + from.ToString() + " -> " + to.ToString());
      EXPECT_EQ(link, (StageLink{from.size(), to.size(), intra, inter}));
      EXPECT_EQ(StageLink::Between(cluster, to, from), link.Reversed());
    }
  }
}

TEST(CostModel, AllReduceMonotoneInSize) {
  const Cluster b = MakeConfigB(8);
  const DeviceSet devices = DeviceSet::Range(0, 8);
  TimeSec prev = 0.0;
  for (Bytes bytes : {1_MiB, 16_MiB, 256_MiB, 1_GiB}) {
    const TimeSec t = Ring(b, devices, bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, CrossStageUsesWorstLink) {
  const Cluster a = MakeConfigA(2);
  const Bytes act = 26_MiB;  // GNMT boundary traffic (Table I)
  const TimeSec same_server = Transfer(a, DeviceSet::Range(0, 4), DeviceSet::Range(4, 4), act);
  const TimeSec cross_server = Transfer(a, DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), act);
  EXPECT_LT(same_server, cross_server);
}

TEST(CostModel, CrossStageParallelizesOverReplicas) {
  const Cluster b = MakeConfigB(16);
  const Bytes act = 64_MiB;
  // 8 senders each ship act/8: faster than 1 sender shipping act.
  const TimeSec wide = Transfer(b, DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), act);
  const TimeSec narrow = Transfer(b, DeviceSet::Range(0, 1), DeviceSet::Range(1, 1), act);
  EXPECT_LT(wide, narrow);
}

TEST(CostModel, CrossStageChargesSplitConcatOnlyWhenUnequal) {
  const Cluster a = MakeConfigA(2);
  const Bytes act = 64_MiB;
  const BytesPerSec bw = a.bandwidth(0, 8);
  const TimeSec fixed = kP2PLaunchOverhead + a.latency(0, 8);
  const double quarter = static_cast<double>(act) / 4;
  const double half = static_cast<double>(act) / 2;
  // Equal replica counts: slices move as they are, no staging copy.
  const TimeSec equal = Transfer(a, DeviceSet::Range(0, 4), DeviceSet::Range(8, 4), act);
  EXPECT_DOUBLE_EQ(equal, fixed + quarter / bw);
  // Many-to-one moves bigger per-endpoint slices AND pays a concat staging
  // copy of one endpoint slice at device memcpy bandwidth.
  const TimeSec unequal = Transfer(a, DeviceSet::Range(0, 4), DeviceSet::Range(8, 2), act);
  EXPECT_DOUBLE_EQ(unequal, fixed + half / bw + half / kMemcpyBandwidth);
  EXPECT_GT(unequal, equal);
}

TEST(CostModel, CrossStageZeroBytesIsFree) {
  const Cluster a = MakeConfigA(2);
  EXPECT_EQ(Transfer(a, DeviceSet::Range(0, 1), DeviceSet::Range(1, 1), 0), 0.0);
}

TEST(CostModel, TableITrafficAsymmetry) {
  // The paper's Table I motivation: boundary activations are MBs while
  // gradients are GBs, so the hybrid plan keeps AllReduce on NVLink and
  // lets only activations cross Ethernet. Verify the cost asymmetry.
  const Cluster a = MakeConfigA(2);
  const TimeSec act_cross = Transfer(a, DeviceSet::Range(0, 8), DeviceSet::Range(8, 8), 9_MiB);
  const TimeSec grads_nvlink = Ring(a, DeviceSet::Range(0, 8), MiB(2800));
  const TimeSec grads_ethernet = Ring(a, DeviceSet({0, 1, 2, 3, 8, 9, 10, 11}), MiB(2800));
  EXPECT_LT(act_cross, grads_nvlink);
  EXPECT_LT(grads_nvlink, grads_ethernet);
}

}  // namespace
}  // namespace dapple::comm
