// Turning a fault script into concrete degradation: snapshots of the
// cluster state at a point in simulated time, construction of the degraded
// cluster the planner replans against (dead devices excluded, stragglers as
// WithServerSpeeds multipliers), structural plan remapping for
// checkpoint–restart, and piecewise-constant engine speed profiles that
// re-cost in-flight tasks at fault-window boundaries.
#pragma once

#include <optional>
#include <vector>

#include "fault/script.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"
#include "topo/cluster.h"

namespace dapple::fault {

/// The cluster as the control plane sees it at one instant: which devices
/// have fail-stopped and what compute/network multipliers are active.
/// Indexed by *original* cluster ids throughout.
struct ClusterState {
  std::vector<bool> device_dead;            // per device
  std::vector<double> server_compute;       // per server, product of slowdowns
  std::vector<double> server_bandwidth;     // per server, product of degradations
  std::vector<TimeSec> server_extra_latency;  // per server, max of degradations

  bool operator==(const ClusterState& other) const = default;
};

/// Evaluates the script at time t. A crash holds from its start until the
/// closest later rejoin of the same device (forever when none — permanent
/// for every legacy script); windows contribute while t is in [start, end).
/// Device-targeted slowdowns fold into their server's multiplier (the
/// planner reasons per-server).
ClusterState StateAt(const FaultScript& script, const topo::Cluster& cluster, TimeSec t);

/// A healthy sub-cluster with dense ids plus the id maps back to the
/// original. A dead device drains its whole server: the cluster model is
/// server-granular, and the paper's placement policies assume full
/// machines.
struct DegradedCluster {
  topo::Cluster cluster;
  /// False when no server survives (every machine lost a device).
  bool feasible = true;
  std::vector<topo::ServerId> to_original_server;   // degraded -> original
  std::vector<topo::DeviceId> to_original_device;   // degraded -> original
  std::vector<topo::DeviceId> from_original_device;  // original -> degraded, -1 if gone
};

/// Builds the cluster a recovery policy plans against: servers with a dead
/// device removed, straggler multipliers applied via WithServerSpeeds, and
/// inter-server bandwidth/latency scaled by the worst active link
/// degradation. With nothing degraded, returns the original with identity
/// maps.
DegradedCluster MakeDegradedCluster(const topo::Cluster& original, const ClusterState& state);

/// Checkpoint–restart's structural remap: keep every stage's layer range,
/// reassign devices onto the degraded cluster in id order, clamping each
/// stage's replication to what still fits. Returns nullopt when the
/// degraded cluster has fewer devices than the plan has stages.
///
/// With `allow_growth` (the elastic scale-up fallback when a full replan
/// probe fails), devices beyond the plan's total are distributed round-robin
/// as extra stage replicas instead of being silently left idle — the
/// historical behaviour when a cluster *grew* was to keep the old plan
/// unchanged, which wasted every rejoined machine.
std::optional<planner::ParallelPlan> RemapPlanToCluster(const planner::ParallelPlan& plan,
                                                        const DegradedCluster& degraded,
                                                        bool allow_growth = false);

/// Compiles the script into per-resource engine speed profiles for one
/// iteration starting at absolute time t0, against a pipeline built for a
/// (possibly degraded) cluster:
///
///  - device slowdowns multiply the device resource's speed during the
///    window; overlapping windows compose multiplicatively;
///  - a crash pins the device resource at speed 0 from the crash onward;
///  - link degradations slow the stage-boundary channels and AllReduce
///    lanes that cross the afflicted server. The extra latency is folded
///    into an effective-speed factor using the slowest transfer actually
///    scheduled on that channel, so byte-heavy channels see it the least.
///
/// `to_original_device` maps the built pipeline's dense device ids to
/// original cluster ids (identity before any replan). Window times are
/// shifted by -t0 into the iteration's local clock; events entirely in the
/// past are dropped (crashes stay: a dead device stays dead).
///
/// `baked` is the cluster state the pipeline was built for: after a replan
/// or remap the degraded cluster already carries straggler multipliers and
/// scaled bandwidth in its task durations, so the profiles express only the
/// *residual* — speed relative to the baked baseline. A device whose baked
/// slowdown window has ended runs at >1x until the next replan catches up.
/// Pass nullptr for a pipeline built against the healthy original cluster.
std::vector<sim::ResourceSpeedProfile> BuildSpeedProfiles(
    const FaultScript& script, const topo::Cluster& original,
    const std::vector<topo::DeviceId>& to_original_device,
    const planner::ParallelPlan& plan, const runtime::BuiltPipeline& built, TimeSec t0,
    const ClusterState* baked = nullptr);

}  // namespace dapple::fault
