#include "comm/cost_model.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/error.h"

namespace dapple::comm {

ReplicaGroup ReplicaGroup::Of(const topo::Cluster& cluster, const topo::DeviceSet& devices) {
  return {devices.size(), devices.SingleServer(cluster)};
}

BoundAllReduce::BoundAllReduce(const topo::InterconnectSpec& net, ReplicaGroup group)
    : n_(group.size) {
  if (n_ < 2) return;
  // The ring's bottleneck link and worst latency: inter-server iff the
  // group spans servers.
  bandwidth_ = group.single_server ? net.intra_server_bandwidth : net.inter_server_bandwidth;
  latency_ = group.single_server ? net.intra_server_latency : net.inter_server_latency;
}

TimeSec BoundAllReduce::operator()(Bytes bytes) const {
  if (n_ < 2 || bytes == 0) return 0.0;
  const double steps = 2.0 * (n_ - 1);
  const double volume = 2.0 * static_cast<double>(n_ - 1) / n_ * static_cast<double>(bytes);
  return kCollectiveLaunchOverhead + steps * latency_ + volume / bandwidth_;
}

StageLink StageLink::Between(const topo::Cluster& cluster, const topo::DeviceSet& from,
                             const topo::DeviceSet& to) {
  StageLink link{from.size(), to.size(), false, false};
  if (from.empty() || to.empty()) return link;
  // Some pair crosses servers iff the two sets together span more than one.
  const topo::ServerId first = cluster.server_of(from.devices().front());
  auto off_first = [&](topo::DeviceId d) { return cluster.server_of(d) != first; };
  link.inter_server = std::any_of(from.devices().begin(), from.devices().end(), off_first) ||
                      std::any_of(to.devices().begin(), to.devices().end(), off_first);
  // An intra-server pair needs a server hosting both sets. `to`'s servers,
  // folded into 64 bits, rule out most `from` devices without a scan.
  auto server_bit = [&](topo::DeviceId d) {
    return std::uint64_t{1} << (static_cast<unsigned>(cluster.server_of(d)) % 64);
  };
  std::uint64_t to_servers = 0;
  for (topo::DeviceId b : to.devices()) to_servers |= server_bit(b);
  for (topo::DeviceId a : from.devices()) {
    if ((to_servers & server_bit(a)) == 0) continue;
    for (topo::DeviceId b : to.devices()) {
      if (b != a && cluster.same_server(a, b)) {
        link.intra_server = true;
        return link;
      }
    }
  }
  return link;
}

BoundCrossStage::BoundCrossStage(const topo::InterconnectSpec& net, StageLink link)
    : from_size_(link.from_size), to_size_(link.to_size) {
  DAPPLE_CHECK(from_size_ > 0 && to_size_ > 0) << "cross-stage transfer needs devices";
  // Slowest link and worst latency over every (from, to) pair.
  bandwidth_ = std::numeric_limits<BytesPerSec>::infinity();
  if (link.intra_server) {
    bandwidth_ = std::min(bandwidth_, net.intra_server_bandwidth);
    latency_ = std::max(latency_, net.intra_server_latency);
  }
  if (link.inter_server) {
    bandwidth_ = std::min(bandwidth_, net.inter_server_bandwidth);
    latency_ = std::max(latency_, net.inter_server_latency);
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

}  // namespace dapple::comm
