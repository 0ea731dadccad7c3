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

/// What a ring AllReduce reads of its device set: the replica count and
/// whether every replica shares one server. Cluster prices a link only by
/// whether it stays inside a server, so these fix the ring's bottleneck
/// link and worst latency.
struct ReplicaGroup {
  int size = 0;
  bool single_server = true;

  static ReplicaGroup Of(const topo::Cluster& cluster, const topo::DeviceSet& devices);

  bool operator==(const ReplicaGroup& other) const = default;
};

/// What a cross-stage transfer reads of its two device sets: both replica
/// counts, and whether some `from` device reaches a different `to` device
/// over an intra-server link and whether some pair crosses servers. A
/// co-located replica (the same device in both sets) moves nothing over a
/// wire, so it joins no link.
struct StageLink {
  int from_size = 0;
  int to_size = 0;
  bool intra_server = false;
  bool inter_server = false;

  static StageLink Between(const topo::Cluster& cluster, const topo::DeviceSet& from,
                           const topo::DeviceSet& to);

  /// The link of the transfer in the opposite direction (to -> from).
  StageLink Reversed() const { return {to_size, from_size, intra_server, inter_server}; }

  bool operator==(const StageLink& other) const = default;
};

/// AllReduce pricing bound to one replica group, so pricing many gradient
/// buckets over the same replicas costs a few flops each.
class BoundAllReduce {
 public:
  BoundAllReduce(const topo::InterconnectSpec& net, ReplicaGroup group);

  /// Flat ring AllReduce of `bytes` over the group: 2(n-1)/n * bytes over
  /// the bottleneck link, plus per-step latency. Zero for groups of size < 2.
  TimeSec operator()(Bytes bytes) const;

 private:
  int n_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
};

/// Cross-stage transfer pricing bound to one stage link: both replica
/// counts, the slowest link and the worst latency are read once, so pricing
/// the boundary at many layers costs a few flops each.
class BoundCrossStage {
 public:
  BoundCrossStage(const topo::InterconnectSpec& net, StageLink link);

  /// Cross-stage activation (or activation-gradient) transfer of one
  /// micro-batch totalling `bytes`, from the replicas of one stage to the
  /// replicas of the next. Models the split/concat of paper Fig. 9: each of
  /// the `from` replicas holds bytes/|from|, each `to` replica must end up
  /// with bytes/|to|; slices move in parallel over the slowest involved
  /// link, with a memcpy charge when a split or concat is required. A
  /// point-to-point hop is the one-to-one link {1, 1, same server, !same
  /// server}.
  TimeSec operator()(Bytes bytes) const;

 private:
  int from_size_ = 0;
  int to_size_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
};

}  // namespace dapple::comm
