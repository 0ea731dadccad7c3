// Analytic communication cost models. These stand in for NCCL and the
// TensorFlow send/recv layer in the paper's testbed: point-to-point
// activation transfers between pipeline stages, split/concat for replicated
// stages (paper Fig. 9), and a flat ring AllReduce for gradient
// synchronization across stage replicas.
//
// All models are alpha-beta (latency + size/bandwidth) models. The ring is
// the collective of the paper's testbed (NCCL 2.4.2): across servers it is
// bottlenecked by Ethernet, precisely the cost DAPPLE's placement avoids by
// keeping replicas on NVLink.
#pragma once

#include "common/units.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::comm {

/// Device-local memory copy bandwidth of a V100-class device, charged for
/// split/concat staging and weight updates.
inline constexpr BytesPerSec kMemcpyBandwidth = GBps(300.0);
/// Fixed software overhead per collective launch.
inline constexpr TimeSec kCollectiveLaunchOverhead = 10e-6;
/// Fixed software overhead per point-to-point transfer.
inline constexpr TimeSec kP2PLaunchOverhead = 5e-6;

/// AllReduce pricing bound to one device set: the set's size, bottleneck
/// link and worst latency are read once, so pricing many gradient buckets
/// over the same replicas costs a few flops each. See
/// CostModel::AllReduceOver.
class BoundAllReduce {
 public:
  /// CostModel::AllReduce(devices, bytes) for the bound set.
  TimeSec operator()(Bytes bytes) const;

 private:
  friend class CostModel;
  BoundAllReduce(const topo::Cluster& cluster, const topo::DeviceSet& devices);

  int n_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
};

/// Cross-stage transfer pricing bound to one (from, to) pair of device
/// sets: both replica counts, the slowest link and the worst latency are
/// read once, so pricing the boundary at many layers costs a few flops
/// each. See CostModel::CrossStageOver.
class BoundCrossStage {
 public:
  /// CostModel::CrossStage(from, to, bytes) for the bound pair.
  TimeSec operator()(Bytes bytes) const;

 private:
  friend class CostModel;
  BoundCrossStage(const topo::Cluster& cluster, const topo::DeviceSet& from,
                  const topo::DeviceSet& to);

  int from_size_ = 0;
  int to_size_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
};

/// Stateless cost calculator bound to a cluster topology.
class CostModel {
 public:
  explicit CostModel(const topo::Cluster& cluster) : cluster_(&cluster) {}

  const topo::Cluster& cluster() const { return *cluster_; }

  /// Point-to-point transfer time for `bytes` from src to dst.
  TimeSec P2P(topo::DeviceId src, topo::DeviceId dst, Bytes bytes) const;

  /// Flat ring AllReduce over the set: 2(n-1)/n * bytes over the
  /// bottleneck link, plus per-step latency. Zero for sets of size < 2.
  TimeSec AllReduce(const topo::DeviceSet& devices, Bytes bytes) const;

  /// AllReduce bound to `devices`: AllReduceOver(devices)(bytes) ==
  /// AllReduce(devices, bytes) bit for bit, with the set's topology read
  /// once for every `bytes` priced through it.
  BoundAllReduce AllReduceOver(const topo::DeviceSet& devices) const;

  /// Cross-stage activation (or activation-gradient) transfer of one
  /// micro-batch totalling `bytes`, from the replicas of one stage to the
  /// replicas of the next. Models the split/concat of paper Fig. 9: each of
  /// the `from` replicas holds bytes/|from|, each `to` replica must end up
  /// with bytes/|to|; slices move in parallel over the slowest involved
  /// link, with a memcpy charge when a split or concat is required.
  TimeSec CrossStage(const topo::DeviceSet& from, const topo::DeviceSet& to,
                     Bytes bytes) const;

  /// CrossStage bound to `from` -> `to`: CrossStageOver(from, to)(bytes) ==
  /// CrossStage(from, to, bytes) bit for bit.
  BoundCrossStage CrossStageOver(const topo::DeviceSet& from, const topo::DeviceSet& to) const;

 private:
  const topo::Cluster* cluster_;
};

}  // namespace dapple::comm
