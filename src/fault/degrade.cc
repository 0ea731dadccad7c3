#include "fault/degrade.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace dapple::fault {

namespace {

constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();

}  // namespace

ClusterState StateAt(const FaultScript& script, const topo::Cluster& cluster, TimeSec t) {
  ClusterState state;
  state.device_dead.assign(static_cast<std::size_t>(cluster.num_devices()), false);
  state.server_compute.assign(static_cast<std::size_t>(cluster.num_servers()), 1.0);
  state.server_bandwidth.assign(static_cast<std::size_t>(cluster.num_servers()), 1.0);
  state.server_extra_latency.assign(static_cast<std::size_t>(cluster.num_servers()), 0.0);
  for (const FaultEvent& e : script.events) {
    if (!e.ActiveAt(t)) continue;
    switch (e.kind) {
      case FaultKind::kDeviceCrash:
        // A crash holds until the closest later rejoin of the device; a
        // rejoin at exactly t already counts as back.
        if (RejoinTimeAfter(script, e) > t) {
          state.device_dead[static_cast<std::size_t>(e.device)] = true;
        }
        break;
      case FaultKind::kDeviceRejoin:
        break;  // handled by the crash it terminates
      case FaultKind::kDeviceSlowdown: {
        // The planner's cluster model is server-granular, so a single slow
        // device drags its whole server in the control-plane view; the
        // engine speed profiles stay per-device exact.
        const topo::ServerId s = e.server >= 0 ? e.server : cluster.server_of(e.device);
        state.server_compute[static_cast<std::size_t>(s)] *= e.compute_multiplier;
        break;
      }
      case FaultKind::kLinkDegradation:
        state.server_bandwidth[static_cast<std::size_t>(e.server)] *= e.bandwidth_multiplier;
        state.server_extra_latency[static_cast<std::size_t>(e.server)] =
            std::max(state.server_extra_latency[static_cast<std::size_t>(e.server)],
                     e.extra_latency);
        break;
    }
  }
  return state;
}

DegradedCluster MakeDegradedCluster(const topo::Cluster& original, const ClusterState& state) {
  const int num_servers = original.num_servers();
  const int gps = original.gpus_per_server();
  DAPPLE_CHECK_EQ(static_cast<int>(state.device_dead.size()), original.num_devices());

  std::vector<bool> server_dead(static_cast<std::size_t>(num_servers), false);
  for (topo::DeviceId d = 0; d < original.num_devices(); ++d) {
    if (state.device_dead[static_cast<std::size_t>(d)]) {
      server_dead[static_cast<std::size_t>(original.server_of(d))] = true;
    }
  }
  std::vector<topo::ServerId> survivors;
  for (topo::ServerId s = 0; s < num_servers; ++s) {
    if (!server_dead[static_cast<std::size_t>(s)]) survivors.push_back(s);
  }

  if (survivors.empty()) {
    DegradedCluster dead{original, false, {}, {}, {}};
    dead.from_original_device.assign(static_cast<std::size_t>(original.num_devices()), -1);
    return dead;
  }

  // Compose the original heterogeneity with the active slowdowns, and scale
  // the Ethernet fabric by the worst surviving link degradation (the
  // planner's InterconnectSpec is cluster-wide).
  std::vector<double> speeds;
  bool any_speed = false;
  double worst_bandwidth = 1.0;
  TimeSec worst_latency = 0.0;
  for (topo::ServerId s : survivors) {
    const double speed =
        original.server_speed(s) * state.server_compute[static_cast<std::size_t>(s)];
    speeds.push_back(speed);
    if (speed != 1.0) any_speed = true;
    worst_bandwidth =
        std::min(worst_bandwidth, state.server_bandwidth[static_cast<std::size_t>(s)]);
    worst_latency =
        std::max(worst_latency, state.server_extra_latency[static_cast<std::size_t>(s)]);
  }

  topo::InterconnectSpec interconnect = original.interconnect();
  interconnect.inter_server_bandwidth =
      static_cast<BytesPerSec>(interconnect.inter_server_bandwidth * worst_bandwidth);
  interconnect.inter_server_latency += worst_latency;

  topo::Cluster cluster(original.name(), static_cast<int>(survivors.size()), gps,
                        original.device(), interconnect);
  if (any_speed) cluster = cluster.WithServerSpeeds(speeds);

  DegradedCluster degraded{std::move(cluster), true, survivors, {}, {}};
  degraded.from_original_device.assign(static_cast<std::size_t>(original.num_devices()), -1);
  for (std::size_t sp = 0; sp < survivors.size(); ++sp) {
    for (int g = 0; g < gps; ++g) {
      const topo::DeviceId orig = survivors[sp] * gps + g;
      degraded.to_original_device.push_back(orig);
      degraded.from_original_device[static_cast<std::size_t>(orig)] =
          static_cast<topo::DeviceId>(sp) * gps + g;
    }
  }
  return degraded;
}

std::optional<planner::ParallelPlan> RemapPlanToCluster(const planner::ParallelPlan& plan,
                                                        const DegradedCluster& degraded,
                                                        bool allow_growth) {
  if (!degraded.feasible) return std::nullopt;
  const int available = degraded.cluster.num_devices();
  const int num_stages = plan.num_stages();
  if (available < num_stages) return std::nullopt;

  std::vector<int> replicas(static_cast<std::size_t>(num_stages), 0);
  int remaining = available;
  for (int i = 0; i < num_stages; ++i) {
    const int later_stages = num_stages - 1 - i;
    // Every later stage still needs at least one device.
    replicas[static_cast<std::size_t>(i)] =
        std::max(1, std::min(plan.stages[static_cast<std::size_t>(i)].replication(),
                             remaining - later_stages));
    remaining -= replicas[static_cast<std::size_t>(i)];
  }
  // Growth path: when the cluster has more devices than the plan ever used
  // (a rejoin after elastic scale-up, or a plan that ran on a subset), widen
  // stages round-robin instead of silently keeping the old plan and leaving
  // the new hardware idle. The recovery layer probes a full replan first;
  // this structural widening is the fallback when the planner finds nothing
  // feasible. Off by default so checkpoint-restart's shrink-only remap (and
  // its pinned goldens) keep their historical shape.
  if (allow_growth) {
    for (int i = 0; remaining > 0; i = (i + 1) % num_stages) {
      ++replicas[static_cast<std::size_t>(i)];
      --remaining;
    }
  }

  planner::ParallelPlan remapped;
  remapped.model = plan.model;
  int next = 0;
  for (int i = 0; i < num_stages; ++i) {
    planner::StagePlan stage = plan.stages[static_cast<std::size_t>(i)];
    stage.devices = topo::DeviceSet::Range(next, replicas[static_cast<std::size_t>(i)]);
    remapped.stages.push_back(std::move(stage));
    next += replicas[static_cast<std::size_t>(i)];
  }
  return remapped;
}

namespace {

/// One clipped degradation window on a resource, in iteration-local time.
struct Window {
  TimeSec start = 0.0;
  TimeSec end = kInf;
  double mult = 1.0;
};

/// Folds overlapping windows into the engine's piecewise-constant segment
/// form: at every breakpoint the speed is the product of the covering
/// windows' multipliers.
std::vector<sim::SpeedSegment> FoldWindows(const std::vector<Window>& windows) {
  std::vector<TimeSec> breaks;
  for (const Window& w : windows) {
    breaks.push_back(w.start);
    if (w.end != kInf) breaks.push_back(w.end);
  }
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());

  std::vector<sim::SpeedSegment> segments;
  for (TimeSec t : breaks) {
    double speed = 1.0;
    for (const Window& w : windows) {
      if (t >= w.start && t < w.end) speed *= w.mult;
    }
    if (!segments.empty() && segments.back().speed == speed) continue;
    if (segments.empty() && speed == 1.0) continue;  // implicit unit lead-in
    segments.push_back({t, speed});
  }
  return segments;
}

}  // namespace

std::vector<sim::ResourceSpeedProfile> BuildSpeedProfiles(
    const FaultScript& script, const topo::Cluster& original,
    const std::vector<topo::DeviceId>& to_original_device,
    const planner::ParallelPlan& plan, const runtime::BuiltPipeline& built, TimeSec t0,
    const ClusterState* baked) {
  const runtime::ResourceLayout layout = built.layout();
  DAPPLE_CHECK_EQ(static_cast<int>(to_original_device.size()), layout.num_devices);

  std::vector<topo::DeviceId> from_original(
      static_cast<std::size_t>(original.num_devices()), -1);
  for (std::size_t d = 0; d < to_original_device.size(); ++d) {
    from_original[static_cast<std::size_t>(to_original_device[d])] =
        static_cast<topo::DeviceId>(d);
  }

  // Slowest transfer per channel, for folding a latency penalty into an
  // effective-speed multiplier.
  std::vector<TimeSec> max_duration(static_cast<std::size_t>(layout.num_resources()), 0.0);
  for (const sim::Task& task : built.graph.tasks()) {
    if (task.resource >= 0 && task.resource < layout.num_resources()) {
      auto& slot = max_duration[static_cast<std::size_t>(task.resource)];
      slot = std::max(slot, task.duration);
    }
  }

  std::vector<std::vector<Window>> windows(
      static_cast<std::size_t>(layout.num_resources()));

  auto add_window = [&](sim::ResourceId r, TimeSec start, TimeSec end, double mult) {
    const TimeSec local_start = std::max(0.0, start - t0);
    const TimeSec local_end = end == kInf ? kInf : end - t0;
    if (local_end <= 0.0 || local_end <= local_start) return;  // entirely in the past
    windows[static_cast<std::size_t>(r)].push_back({local_start, local_end, mult});
  };

  // The degraded cluster a replan/remap built against already scaled the
  // inter-server fabric by the worst surviving degradation; channel events
  // apply only their residual on top of that baked baseline.
  double baked_bandwidth = 1.0;
  TimeSec baked_latency = 0.0;
  if (baked != nullptr) {
    for (topo::DeviceId orig : to_original_device) {
      const auto s = static_cast<std::size_t>(original.server_of(orig));
      baked_bandwidth = std::min(baked_bandwidth, baked->server_bandwidth[s]);
      baked_latency = std::max(baked_latency, baked->server_extra_latency[s]);
    }
  }

  auto channel_mult = [&](sim::ResourceId r, const FaultEvent& e) {
    const double bandwidth = e.bandwidth_multiplier / baked_bandwidth;
    const TimeSec latency = std::max(0.0, e.extra_latency - baked_latency);
    const TimeSec base = max_duration[static_cast<std::size_t>(r)];
    if (base <= 0.0) return bandwidth;
    const TimeSec degraded = base / bandwidth + latency;
    return base / degraded;
  };

  // Original-server membership of each built stage's device set, plus
  // whether the stage's transfers / AllReduce actually leave a machine.
  const int num_stages = plan.num_stages();
  auto stage_touches = [&](int stage, topo::ServerId server) {
    for (topo::DeviceId d : plan.stages[static_cast<std::size_t>(stage)].devices.devices()) {
      if (original.server_of(to_original_device[static_cast<std::size_t>(d)]) == server)
        return true;
    }
    return false;
  };
  auto stage_servers = [&](int stage) {
    int first = -1;
    for (topo::DeviceId d : plan.stages[static_cast<std::size_t>(stage)].devices.devices()) {
      const int s = original.server_of(to_original_device[static_cast<std::size_t>(d)]);
      if (first < 0) first = s;
      if (s != first) return 2;
    }
    return first < 0 ? 0 : 1;
  };

  for (const FaultEvent& e : script.events) {
    switch (e.kind) {
      case FaultKind::kDeviceCrash: {
        const topo::DeviceId b = from_original[static_cast<std::size_t>(e.device)];
        // Fail-stop: a live outage pins the device open-endedly so the
        // in-flight iteration is lost rather than silently pausing through
        // it — what to do with the eventual rejoin is the recovery control
        // plane's call, not the simulator's. Only once the rejoin is behind
        // the configuration's start time is the outage fully over and the
        // window gone.
        if (b >= 0 && RejoinTimeAfter(script, e) > t0) add_window(b, e.start, kInf, 0.0);
        break;
      }
      case FaultKind::kDeviceRejoin:
        break;  // already the end of the crash window it terminates
      case FaultKind::kDeviceSlowdown: {
        if (e.device >= 0) {
          const topo::DeviceId b = from_original[static_cast<std::size_t>(e.device)];
          if (b >= 0) add_window(b, e.start, e.end, e.compute_multiplier);
        } else {
          for (std::size_t d = 0; d < to_original_device.size(); ++d) {
            if (original.server_of(to_original_device[d]) == e.server) {
              add_window(static_cast<sim::ResourceId>(d), e.start, e.end,
                         e.compute_multiplier);
            }
          }
        }
        break;
      }
      case FaultKind::kLinkDegradation: {
        for (int b = 0; b < layout.num_boundaries(); ++b) {
          // The boundary's transfers leave a machine only when the two
          // stage device sets are not co-resident on one server.
          const bool crosses =
              stage_servers(b) > 1 || stage_servers(b + 1) > 1 ||
              (stage_touches(b, e.server) != stage_touches(b + 1, e.server));
          if (!crosses) continue;
          if (!stage_touches(b, e.server) && !stage_touches(b + 1, e.server)) continue;
          const sim::ResourceId fwd = layout.ForwardChannel(b);
          const sim::ResourceId bwd = layout.BackwardChannel(b);
          add_window(fwd, e.start, e.end, channel_mult(fwd, e));
          add_window(bwd, e.start, e.end, channel_mult(bwd, e));
        }
        for (int s = 0; s < num_stages; ++s) {
          if (plan.stages[static_cast<std::size_t>(s)].replication() < 2) continue;
          // Intra-server rings ride NVLink; only multi-server AllReduce
          // touches the degraded NIC.
          if (stage_servers(s) < 2 || !stage_touches(s, e.server)) continue;
          const sim::ResourceId lane = layout.AllReduceLane(s);
          add_window(lane, e.start, e.end, channel_mult(lane, e));
        }
        break;
      }
    }
  }

  // The graph only references resources that host tasks; a plan that leaves
  // devices idle (DP on a subset, single-stage plans without channels) has
  // fewer resources than the layout — faults on idle hardware are no-ops.
  const int graph_resources = built.graph.num_resources();

  std::vector<sim::ResourceSpeedProfile> profiles;
  for (std::size_t r = 0; r < windows.size(); ++r) {
    if (static_cast<int>(r) >= graph_resources) continue;
    std::vector<sim::SpeedSegment> segments = FoldWindows(windows[r]);
    // Devices on a baked-straggler server run relative to the slowed
    // baseline the builder priced in: active windows cancel against it, and
    // a window that has ended leaves the device at >1x until the next
    // replan rebuilds with healthy durations.
    if (baked != nullptr && layout.IsDevice(static_cast<sim::ResourceId>(r))) {
      const auto s = static_cast<std::size_t>(original.server_of(to_original_device[r]));
      const double baked_mult = baked->server_compute[s];
      if (baked_mult != 1.0) {
        for (sim::SpeedSegment& seg : segments) seg.speed /= baked_mult;
        if (segments.empty() || segments.front().start > 0.0) {
          segments.insert(segments.begin(), {0.0, 1.0 / baked_mult});
        }
      }
    }
    const bool all_unit =
        std::all_of(segments.begin(), segments.end(),
                    [](const sim::SpeedSegment& seg) { return seg.speed == 1.0; });
    if (segments.empty() || all_unit) continue;
    profiles.push_back({static_cast<sim::ResourceId>(r), std::move(segments)});
  }
  return profiles;
}

}  // namespace dapple::fault
