#include "comm/cost_model.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/error.h"

namespace dapple::comm {

TimeSec CostModel::P2P(topo::DeviceId src, topo::DeviceId dst, Bytes bytes) const {
  if (src == dst || bytes == 0) return 0.0;
  const BytesPerSec bw = cluster_->bandwidth(src, dst);
  return kP2PLaunchOverhead + cluster_->latency(src, dst) + static_cast<double>(bytes) / bw;
}

BoundAllReduce::BoundAllReduce(const topo::Cluster& cluster, const topo::DeviceSet& devices)
    : n_(devices.size()) {
  if (n_ < 2) return;
  bandwidth_ = devices.BottleneckBandwidth(cluster);
  latency_ = devices.MaxLatency(cluster);
}

TimeSec BoundAllReduce::operator()(Bytes bytes) const {
  if (n_ < 2 || bytes == 0) return 0.0;
  const double steps = 2.0 * (n_ - 1);
  const double volume = 2.0 * static_cast<double>(n_ - 1) / n_ * static_cast<double>(bytes);
  return kCollectiveLaunchOverhead + steps * latency_ + volume / bandwidth_;
}

TimeSec CostModel::AllReduce(const topo::DeviceSet& devices, Bytes bytes) const {
  return AllReduceOver(devices)(bytes);
}

BoundAllReduce CostModel::AllReduceOver(const topo::DeviceSet& devices) const {
  return BoundAllReduce(*cluster_, devices);
}

namespace {

/// One (from, to) device pair per kind of link a cross-stage transfer
/// uses, -1 where it uses none. Cluster prices a link only by whether it
/// stays inside one server, so these two pairs stand for every pair, and
/// finding them takes one pass over each set instead of one per pair.
struct LinkPairs {
  topo::DeviceId intra_from = -1;
  topo::DeviceId intra_to = -1;
  topo::DeviceId inter_from = -1;
  topo::DeviceId inter_to = -1;
};

LinkPairs FindLinkPairs(const topo::Cluster& cluster, const topo::DeviceSet& from,
                        const topo::DeviceSet& to) {
  // Up to two `to` devices per server, so one differs from any given
  // device; and `to` devices on two different servers, so one is off any
  // given server.
  std::vector<std::array<topo::DeviceId, 2>> on_server(
      static_cast<std::size_t>(cluster.num_servers()), {-1, -1});
  std::array<topo::DeviceId, 2> spread = {-1, -1};
  for (topo::DeviceId b : to.devices()) {
    auto& slots = on_server[static_cast<std::size_t>(cluster.server_of(b))];
    if (slots[0] < 0) {
      slots[0] = b;
    } else if (slots[1] < 0) {
      slots[1] = b;
    }
    if (spread[0] < 0) {
      spread[0] = b;
    } else if (spread[1] < 0 && !cluster.same_server(spread[0], b)) {
      spread[1] = b;
    }
  }
  LinkPairs pairs;
  for (topo::DeviceId a : from.devices()) {
    const auto& slots = on_server[static_cast<std::size_t>(cluster.server_of(a))];
    if (pairs.intra_from < 0) {
      // A co-located replica (a == b) moves nothing over a wire.
      const topo::DeviceId b = slots[0] != a ? slots[0] : slots[1];
      if (b >= 0) {
        pairs.intra_from = a;
        pairs.intra_to = b;
      }
    }
    if (pairs.inter_from < 0 && spread[0] >= 0) {
      const topo::DeviceId b = !cluster.same_server(a, spread[0]) ? spread[0] : spread[1];
      if (b >= 0) {
        pairs.inter_from = a;
        pairs.inter_to = b;
      }
    }
    if (pairs.intra_from >= 0 && pairs.inter_from >= 0) break;
  }
  return pairs;
}

}  // namespace

BoundCrossStage::BoundCrossStage(const topo::Cluster& cluster, const topo::DeviceSet& from,
                                 const topo::DeviceSet& to)
    : from_size_(from.size()), to_size_(to.size()) {
  DAPPLE_CHECK(!from.empty() && !to.empty()) << "cross-stage transfer needs devices";
  // Slowest link and worst latency over every (from, to) pair.
  const LinkPairs pairs = FindLinkPairs(cluster, from, to);
  bandwidth_ = std::numeric_limits<BytesPerSec>::infinity();
  if (pairs.intra_from >= 0) {
    bandwidth_ = std::min(bandwidth_, cluster.bandwidth(pairs.intra_from, pairs.intra_to));
    latency_ = std::max(latency_, cluster.latency(pairs.intra_from, pairs.intra_to));
  }
  if (pairs.inter_from >= 0) {
    bandwidth_ = std::min(bandwidth_, cluster.bandwidth(pairs.inter_from, pairs.inter_to));
    latency_ = std::max(latency_, cluster.latency(pairs.inter_from, pairs.inter_to));
  }
  if (bandwidth_ == std::numeric_limits<BytesPerSec>::infinity()) {
    // Fully co-located stages communicate through device memory.
    bandwidth_ = kMemcpyBandwidth;
  }
}

TimeSec BoundCrossStage::operator()(Bytes bytes) const {
  if (bytes == 0) return 0.0;

  const double slice_out = static_cast<double>(bytes) / from_size_;
  const double slice_in = static_cast<double>(bytes) / to_size_;

  // The transfer completes when the busiest endpoint finishes: each sender
  // pushes slice_out bytes, each receiver drains slice_in bytes; the wire
  // phases proceed in parallel across replica pairs.
  TimeSec wire = std::max(slice_out, slice_in) / bandwidth_;

  // Split/concat staging copies apply only when the replica counts differ
  // (paper Fig. 9 b-d); the staged volume is one endpoint slice.
  TimeSec staging = 0.0;
  if (from_size_ != to_size_) {
    staging = std::max(slice_out, slice_in) / kMemcpyBandwidth;
  }

  return kP2PLaunchOverhead + latency_ + wire + staging;
}

TimeSec CostModel::CrossStage(const topo::DeviceSet& from, const topo::DeviceSet& to,
                              Bytes bytes) const {
  return CrossStageOver(from, to)(bytes);
}

BoundCrossStage CostModel::CrossStageOver(const topo::DeviceSet& from,
                                          const topo::DeviceSet& to) const {
  return BoundCrossStage(*cluster_, from, to);
}

}  // namespace dapple::comm
