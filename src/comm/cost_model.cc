#include "comm/cost_model.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace dapple::comm {

CostModel::CostModel(const topo::Cluster& cluster, CostModelOptions options)
    : cluster_(&cluster), options_(options) {
  DAPPLE_CHECK_GT(options_.memcpy_bandwidth, 0.0);
}

TimeSec CostModel::P2P(topo::DeviceId src, topo::DeviceId dst, Bytes bytes) const {
  if (src == dst || bytes == 0) return 0.0;
  const BytesPerSec bw = cluster_->bandwidth(src, dst);
  return options_.p2p_launch_overhead + cluster_->latency(src, dst) +
         static_cast<double>(bytes) / bw;
}

BoundAllReduce::BoundAllReduce(const CostModel& model, const topo::DeviceSet& devices,
                               bool hierarchical)
    : model_(&model), n_(devices.size()), hierarchical_(hierarchical) {
  if (n_ < 2) return;
  bandwidth_ = devices.BottleneckBandwidth(model.cluster());
  latency_ = devices.MaxLatency(model.cluster());
  if (!hierarchical_) return;
  for (int c : devices.PerServerCounts(model.cluster())) {
    if (c > 0) ++servers_used_;
    max_per_server_ = std::max(max_per_server_, c);
  }
}

TimeSec BoundAllReduce::operator()(Bytes bytes) const {
  if (n_ < 2 || bytes == 0) return 0.0;
  if (hierarchical_) return std::min(Ring(bytes), Hierarchical(bytes));
  return Ring(bytes);
}

TimeSec BoundAllReduce::Ring(Bytes bytes) const {
  if (n_ < 2 || bytes == 0) return 0.0;
  const double steps = 2.0 * (n_ - 1);
  const double volume = 2.0 * static_cast<double>(n_ - 1) / n_ * static_cast<double>(bytes);
  return model_->options().collective_launch_overhead + steps * latency_ + volume / bandwidth_;
}

TimeSec BoundAllReduce::Hierarchical(Bytes bytes) const {
  if (n_ < 2 || bytes == 0) return 0.0;
  if (servers_used_ <= 1) return Ring(bytes);

  const auto& net = model_->cluster().interconnect();
  TimeSec total = model_->options().collective_launch_overhead;

  // Phase 1: intra-server reduce-scatter on the busiest server (others
  // overlap). Volume (m-1)/m * bytes over NVLink.
  if (max_per_server_ > 1) {
    const double m = max_per_server_;
    total += (m - 1.0) / m * static_cast<double>(bytes) / net.intra_server_bandwidth +
             (m - 1.0) * net.intra_server_latency;
  }
  // Phase 2: inter-server ring AllReduce over one leader per server.
  {
    const double k = servers_used_;
    total += 2.0 * (k - 1.0) / k * static_cast<double>(bytes) / net.inter_server_bandwidth +
             2.0 * (k - 1.0) * net.inter_server_latency;
  }
  // Phase 3: intra-server all-gather, mirroring phase 1.
  if (max_per_server_ > 1) {
    const double m = max_per_server_;
    total += (m - 1.0) / m * static_cast<double>(bytes) / net.intra_server_bandwidth +
             (m - 1.0) * net.intra_server_latency;
  }
  return total;
}

TimeSec CostModel::RingAllReduce(const topo::DeviceSet& devices, Bytes bytes) const {
  return BoundAllReduce(*this, devices, /*hierarchical=*/false).Ring(bytes);
}

TimeSec CostModel::HierarchicalAllReduce(const topo::DeviceSet& devices, Bytes bytes) const {
  return BoundAllReduce(*this, devices, /*hierarchical=*/true).Hierarchical(bytes);
}

TimeSec CostModel::AllReduce(const topo::DeviceSet& devices, Bytes bytes) const {
  return AllReduceOver(devices)(bytes);
}

BoundAllReduce CostModel::AllReduceOver(const topo::DeviceSet& devices) const {
  return BoundAllReduce(*this, devices, options_.enable_hierarchical);
}

BytesPerSec CostModel::WorstPairBandwidth(const topo::DeviceSet& from,
                                          const topo::DeviceSet& to) const {
  BytesPerSec worst = std::numeric_limits<BytesPerSec>::infinity();
  for (topo::DeviceId a : from.devices()) {
    for (topo::DeviceId b : to.devices()) {
      if (a == b) continue;  // co-located replica: no wire transfer
      worst = std::min(worst, cluster_->bandwidth(a, b));
    }
  }
  if (worst == std::numeric_limits<BytesPerSec>::infinity()) {
    // Fully co-located stages communicate through device memory.
    worst = options_.memcpy_bandwidth;
  }
  return worst;
}

TimeSec CostModel::CrossStage(const topo::DeviceSet& from, const topo::DeviceSet& to,
                              Bytes bytes) const {
  DAPPLE_CHECK(!from.empty() && !to.empty()) << "cross-stage transfer needs devices";
  if (bytes == 0) return 0.0;

  const double slice_out = static_cast<double>(bytes) / from.size();
  const double slice_in = static_cast<double>(bytes) / to.size();
  const BytesPerSec bw = WorstPairBandwidth(from, to);

  // The transfer completes when the busiest endpoint finishes: each sender
  // pushes slice_out bytes, each receiver drains slice_in bytes; the wire
  // phases proceed in parallel across replica pairs.
  TimeSec wire = std::max(slice_out, slice_in) / bw;

  TimeSec lat = 0.0;
  for (topo::DeviceId a : from.devices()) {
    for (topo::DeviceId b : to.devices()) {
      if (a == b) continue;
      lat = std::max(lat, cluster_->latency(a, b));
    }
  }

  // Split/concat staging copies apply only when the replica counts differ
  // (paper Fig. 9 b-d); the staged volume is one endpoint slice.
  TimeSec staging = 0.0;
  if (from.size() != to.size()) {
    staging = std::max(slice_out, slice_in) / options_.memcpy_bandwidth;
  }

  return options_.p2p_launch_overhead + lat + wire + staging;
}

}  // namespace dapple::comm
