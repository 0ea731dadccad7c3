// Analytic communication cost models. These stand in for NCCL and the
// TensorFlow send/recv layer in the paper's testbed: point-to-point
// activation transfers between pipeline stages, split/concat for replicated
// stages (paper Fig. 9), and ring / hierarchical AllReduce for gradient
// synchronization across stage replicas.
//
// All models are alpha-beta (latency + size/bandwidth) models; the
// hierarchical AllReduce mirrors NCCL's behaviour on NVLink+Ethernet
// clusters (reduce-scatter inside each server, ring across servers,
// all-gather inside each server).
#pragma once

#include "common/units.h"
#include "topo/cluster.h"
#include "topo/device_set.h"

namespace dapple::comm {

/// Tuning knobs for the analytic models. Defaults approximate a V100-class
/// node; tests exercise the formulas with synthetic values.
struct CostModelOptions {
  /// Device-local memory copy bandwidth charged for split/concat staging.
  BytesPerSec memcpy_bandwidth = GBps(300.0);
  /// Fixed software overhead per collective launch.
  TimeSec collective_launch_overhead = 10e-6;
  /// Fixed software overhead per point-to-point transfer.
  TimeSec p2p_launch_overhead = 5e-6;
  /// Let AllReduce() use the hierarchical algorithm when it wins. Off by
  /// default: the paper's testbed ran NCCL 2.4.2, whose cross-server
  /// collective is a flat ring bottlenecked by Ethernet — precisely the
  /// cost DAPPLE's placement avoids by keeping replicas on NVLink.
  bool enable_hierarchical = false;
};

class CostModel;

/// AllReduce pricing bound to one device set: the set's size, bottleneck
/// link and worst latency (and, with hierarchical AllReduce enabled, its
/// per-server span) are read once, so pricing many gradient buckets over
/// the same replicas costs a few flops each. Holds a pointer to the
/// CostModel that made it and must not outlive it; see
/// CostModel::AllReduceOver.
class BoundAllReduce {
 public:
  /// CostModel::AllReduce(devices, bytes) for the bound set.
  TimeSec operator()(Bytes bytes) const;

 private:
  friend class CostModel;
  BoundAllReduce(const CostModel& model, const topo::DeviceSet& devices, bool hierarchical);

  /// The one copy of each formula; CostModel's set-and-bytes entry points
  /// bind and call these.
  TimeSec Ring(Bytes bytes) const;
  TimeSec Hierarchical(Bytes bytes) const;

  const CostModel* model_;
  int n_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
  /// Whether operator() takes the min with the hierarchical algorithm.
  bool hierarchical_ = false;
  int servers_used_ = 0;
  int max_per_server_ = 0;
};

/// Cross-stage transfer pricing bound to one (from, to) pair of device
/// sets: both replica counts, the slowest link and the worst latency are
/// read once, so pricing the boundary at many layers costs a few flops
/// each. Same lifetime rule as BoundAllReduce; see
/// CostModel::CrossStageOver.
class BoundCrossStage {
 public:
  /// CostModel::CrossStage(from, to, bytes) for the bound pair.
  TimeSec operator()(Bytes bytes) const;

 private:
  friend class CostModel;
  BoundCrossStage(const CostModel& model, const topo::DeviceSet& from,
                  const topo::DeviceSet& to);

  const CostModel* model_;
  int from_size_ = 0;
  int to_size_ = 0;
  BytesPerSec bandwidth_ = 0.0;
  TimeSec latency_ = 0.0;
};

/// Stateless cost calculator bound to a cluster topology.
class CostModel {
 public:
  explicit CostModel(const topo::Cluster& cluster, CostModelOptions options = {});

  const topo::Cluster& cluster() const { return *cluster_; }
  const CostModelOptions& options() const { return options_; }

  /// Point-to-point transfer time for `bytes` from src to dst.
  TimeSec P2P(topo::DeviceId src, topo::DeviceId dst, Bytes bytes) const;

  /// Classic ring AllReduce over the set: 2(n-1)/n * bytes over the
  /// bottleneck link, plus per-step latency. Zero for sets of size < 2.
  TimeSec RingAllReduce(const topo::DeviceSet& devices, Bytes bytes) const;

  /// Hierarchical AllReduce: intra-server reduce-scatter, inter-server ring
  /// over one leader per server, intra-server all-gather. Falls back to the
  /// flat ring when the set sits inside one server.
  TimeSec HierarchicalAllReduce(const topo::DeviceSet& devices, Bytes bytes) const;

  /// Best available AllReduce (what a tuned NCCL picks): min of ring and
  /// hierarchical.
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
  CostModelOptions options_;
};

}  // namespace dapple::comm
