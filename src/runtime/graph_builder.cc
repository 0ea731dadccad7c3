#include "runtime/graph_builder.h"

#include <algorithm>
#include <vector>

#include "comm/cost_model.h"
#include "common/error.h"
#include "planner/latency.h"

namespace dapple::runtime {

const char* ToString(ReplicationMode mode) {
  switch (mode) {
    case ReplicationMode::kSplitMicroBatch: return "split";
    case ReplicationMode::kRoundRobin: return "round-robin";
  }
  return "?";
}

BuildOptions BuildOptionsFor(const planner::PlannerOptions& options) {
  BuildOptions build;
  build.global_batch_size = options.global_batch_size;
  build.schedule.kind = options.latency.schedule_kind;
  build.memory_cap = options.latency.memory_cap;
  build.overlap_allreduce = options.latency.overlap_allreduce;
  return build;
}

namespace {

struct StageInfo {
  const planner::StagePlan* plan = nullptr;
  /// Device/replication source. Identity for the linear schedules; for the
  /// V shapes, chunk c executes on its host group's stage
  /// (min(c, S-1-c)), so both chunks of a group share one device set.
  const planner::StagePlan* exec = nullptr;
  double samples = 0.0;  // examples per FW/BW task on one device
  TimeSec forward = 0.0;
  TimeSec backward = 0.0;
  TimeSec bw_input = 0.0;   // 2BP: backward-input half (carries recompute)
  TimeSec bw_weight = 0.0;  // 2BP: deferred backward-weight half
  Bytes baseline = 0;
  planner::LatencyEstimator::StageMemory memory;  // at `samples`
};

}  // namespace

GraphBuilder::GraphBuilder(const model::ModelProfile& model, const topo::Cluster& cluster,
                           const planner::ParallelPlan& plan, BuildOptions options)
    : model_(&model), cluster_(&cluster), plan_(&plan), options_(options) {
  DAPPLE_CHECK_GT(options_.global_batch_size, 0) << "global batch size";
  plan.Validate(model);
}

BuiltPipeline GraphBuilder::Build() const {
  const int num_stages = plan_->num_stages();
  const int num_devices = cluster_->num_devices();
  const ScheduleKind kind = options_.schedule.kind;
  const int num_groups = NumGroups(kind, num_stages);
  const bool split_bw = kind == ScheduleKind::kDappleSplitBw;
  // The planner's cost model, configured as the plan was priced: the
  // builder reads its micro-batching, stage memory, capacity, boundary
  // transfers and exposed AllReduce, so the simulated OOM boundary is the
  // planner's.
  planner::LatencyOptions latency;
  latency.overlap_allreduce = options_.overlap_allreduce;
  latency.memory_cap = options_.memory_cap;
  latency.schedule_kind = kind;
  const planner::LatencyEstimator estimator(*model_, *cluster_, latency);
  const Bytes capacity = estimator.EffectiveCapacity();

  BuiltPipeline built;
  built.num_devices = num_devices;
  built.num_stages = num_stages;
  built.options = options_;
  if (options_.micro_batch_size > 0) {
    built.micro_batch_size = options_.micro_batch_size;
    built.num_micro_batches = static_cast<int>(
        std::max<long>(1, options_.global_batch_size / built.micro_batch_size));
  } else {
    const planner::MicroBatching mb =
        estimator.MicroBatchingOf(*plan_, options_.global_batch_size);
    built.micro_batch_size = mb.micro_batch_size;
    built.num_micro_batches = mb.num_micro_batches;
  }
  DAPPLE_CHECK_GT(built.micro_batch_size, 0);
  const int mbs = built.micro_batch_size;
  const int m_total = built.num_micro_batches;
  built.single_device_time = estimator.SingleDeviceTime(static_cast<long>(mbs) * m_total);

  // --- Per-stage costs and memory effects -------------------------------
  std::vector<StageInfo> info(static_cast<std::size_t>(num_stages));
  std::vector<int> memory_limits(static_cast<std::size_t>(num_stages), 0);
  for (int i = 0; i < num_stages; ++i) {
    StageInfo& si = info[static_cast<std::size_t>(i)];
    si.plan = &plan_->stages[static_cast<std::size_t>(i)];
    si.exec = &plan_->stages[static_cast<std::size_t>(HostStage(kind, i, num_stages))];
    const int r = si.exec->replication();
    si.samples = options_.replication == ReplicationMode::kSplitMicroBatch
                     ? static_cast<double>(mbs) / r
                     : static_cast<double>(mbs);
    // Reference durations at unit speed; per-device tasks divide by their
    // own device's speed (heterogeneous servers / stragglers).
    si.forward =
        model_->ForwardTime(si.plan->layer_begin, si.plan->layer_end, si.samples, 1.0);
    si.backward =
        model_->BackwardTime(si.plan->layer_begin, si.plan->layer_end, si.samples, 1.0);
    const bool recompute = si.plan->recompute;
    built.stage_recompute.push_back(recompute ? 1 : 0);
    // 2BP halves the backward at the input/weight gradient boundary; the
    // forward replay under recompute must precede the input half (the
    // gradient leaves the stage there), so the overhead lands on BI.
    si.bw_weight = 0.5 * si.backward;
    if (recompute) {
      si.backward += options_.schedule.recompute_overhead * si.forward;
    }
    si.bw_input = si.backward - si.bw_weight;
    si.baseline = model_->BaselineMemory(si.plan->layer_begin, si.plan->layer_end);
    si.memory = estimator.StageMemoryAt(si.plan->layer_begin, si.plan->layer_end, recompute,
                                        si.samples);

    // Memory-supported in-flight count D (the 1F1B family throttles;
    // GPipe's all-forwards injection is what we want to observe OOMing).
    if ((kind == ScheduleKind::kDapple || kind == ScheduleKind::kDappleSplitBw) &&
        options_.enforce_memory_capacity && si.memory.stash > 0) {
      // 2BP holds one extra stash transiently: the next forward runs
      // between BI_m and BWW_m, before BWW_m frees micro-batch m.
      const Bytes reserve = si.memory.fixed + (split_bw ? si.memory.stash : Bytes{0});
      int& memory_limit = memory_limits[static_cast<std::size_t>(i)];
      if (capacity > reserve) {
        memory_limit = static_cast<int>((capacity - reserve) / si.memory.stash);
      }
      memory_limit = std::max(memory_limit, 1);
    }
  }
  // The validator rebuilds this schedule from warmup_depths.
  PipelineSchedule schedule = BuildSchedule(options_.schedule, num_stages, m_total, memory_limits);
  built.warmup_depths = std::move(schedule.depths);

  // --- Resource ids ------------------------------------------------------
  const ResourceLayout layout = built.layout();
  const bool split = options_.replication == ReplicationMode::kSplitMicroBatch;

  // --- Task ids ------------------------------------------------------------
  // Stage i's compute tasks are added in (micro-batch, slot) order, each
  // slot contributing FW, BW and (under 2BP) BWW, so every id is arithmetic:
  // fw(i, m, k) = compute_base[i] + (m * slots(i) + k) * per_slot. A split
  // micro-batch has one slot per replica; a round-robin one has a single
  // slot on device m % r. Under 2BP the BW task is the backward-input half
  // (it carries the cross-stage gradient, so transfers read it) and the BWW
  // task the weight half.
  const int per_slot = split_bw ? 3 : 2;
  const sim::TaskId grad_offset = split_bw ? 2 : 1;
  auto slots = [&](int stage) {
    return split ? info[static_cast<std::size_t>(stage)].exec->replication() : 1;
  };
  std::vector<sim::TaskId> compute_base(static_cast<std::size_t>(num_stages) + 1, 0);
  int num_tasks = 0;
  for (int i = 0; i < num_stages; ++i) {
    const int replication = info[static_cast<std::size_t>(i)].exec->replication();
    compute_base[static_cast<std::size_t>(i) + 1] =
        compute_base[static_cast<std::size_t>(i)] + m_total * slots(i) * per_slot;
    // APPLY per replica, plus AR when the stage is replicated.
    num_tasks += replication + (replication > 1 ? 1 : 0);
  }
  num_tasks += compute_base.back() + 2 * (num_stages - 1) * m_total;
  auto fw_task = [&](int stage, int micro, int slot) -> sim::TaskId {
    return compute_base[static_cast<std::size_t>(stage)] +
           (micro * slots(stage) + slot) * per_slot;
  };
  auto slot_device = [&](int stage, int micro, int slot) -> topo::DeviceId {
    const planner::StagePlan& exec = *info[static_cast<std::size_t>(stage)].exec;
    return exec.devices[split ? slot : micro % exec.replication()];
  };

  sim::TaskGraph& graph = built.graph;
  graph.Reserve(num_tasks);

  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    // A forward allocates one stash; a backward adds the recompute replay's
    // transient working set, and the task that frees releases both.
    const Bytes replay = si.memory.fixed - si.baseline;
    const Bytes release = si.memory.stash + replay;
    for (int m = 0; m < m_total; ++m) {
      for (int k = 0; k < slots(i); ++k) {
        const topo::DeviceId dev = slot_device(i, m, k);
        const double dev_speed = cluster_->device_speed(dev);
        sim::Task fw;
        fw.kind = sim::TaskKind::kForward;
        fw.resource = dev;
        fw.duration = si.forward / dev_speed;
        fw.pool = dev;
        fw.alloc_at_start = si.memory.stash;
        fw.stage = i;
        fw.microbatch = m;
        fw.device = dev;
        graph.AddTask(fw);

        sim::Task bw;
        bw.kind = sim::TaskKind::kBackward;
        if (split_bw) bw.variant = sim::TaskVariant::kBackwardInput;
        bw.resource = dev;
        bw.duration = (split_bw ? si.bw_input : si.backward) / dev_speed;
        bw.pool = dev;
        bw.alloc_at_start = replay;
        // 2BP: the stash (and the replay working set) stays live until the
        // weight half has consumed the activations; BWW frees it all.
        bw.free_at_end = split_bw ? Bytes{0} : release;
        bw.stage = i;
        bw.microbatch = m;
        bw.device = dev;
        graph.AddTask(bw);

        if (split_bw) {
          sim::Task bww;
          bww.kind = sim::TaskKind::kBackwardWeight;
          bww.resource = dev;
          bww.duration = si.bw_weight / dev_speed;
          bww.pool = dev;
          bww.free_at_end = release;
          bww.stage = i;
          bww.microbatch = m;
          bww.device = dev;
          graph.AddTask(bww);
        }
      }
    }
  }
  DAPPLE_CHECK_EQ(graph.num_tasks(), compute_base.back());

  // --- Data dependencies: FW chain, BW chain, cross-stage transfers ------
  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    for (int m = 0; m < m_total; ++m) {
      // Same-replica FW -> BW (activations live on the device).
      for (int k = 0; k < slots(i); ++k) graph.AddEdge(fw_task(i, m, k), fw_task(i, m, k) + 1);
      if (split_bw) {
        // BI produces the intermediate gradients BWW contracts against.
        for (int k = 0; k < slots(i); ++k) {
          graph.AddEdge(fw_task(i, m, k) + 1, fw_task(i, m, k) + 2);
        }
      }
    }
    if (i + 1 == num_stages) continue;

    const StageInfo& sn = info[static_cast<std::size_t>(i + 1)];
    const Bytes act = model_->ActivationAt(si.plan->layer_end, static_cast<double>(mbs));
    // Split micro-batches cross the boundary between the same replica sets
    // with the same bytes every time, at the planner's price; co-located
    // device sets (a V group's two chunks, or the V bottom) degrade to a
    // local memcpy.
    const planner::StageCost split_cost =
        split ? estimator.CommAcross(si.exec->devices, sn.exec->devices, mbs)(si.plan->layer_end)
              : planner::StageCost{};
    for (int m = 0; m < m_total; ++m) {
      TimeSec tx_time = split_cost.forward;
      TimeSec btx_time = split_cost.backward;
      if (!split) {
        // A round-robin hop is one device to one device, the same price
        // both ways; a hop that stays on its device is free.
        const topo::DeviceId a = slot_device(i, m, 0);
        const topo::DeviceId b = slot_device(i + 1, m, 0);
        const bool same_server = cluster_->same_server(a, b);
        tx_time = a == b ? 0.0
                         : comm::BoundCrossStage(cluster_->interconnect(),
                                                 {1, 1, same_server, !same_server})(act);
        btx_time = tx_time;
      }
      sim::Task txf;
      txf.kind = sim::TaskKind::kTransfer;
      txf.resource = layout.ForwardChannel(i);
      txf.duration = tx_time;
      txf.stage = i;
      txf.microbatch = m;
      txf.bytes = act;
      const sim::TaskId txf_id = graph.AddTask(txf);
      for (int k = 0; k < slots(i); ++k) graph.AddEdge(fw_task(i, m, k), txf_id);
      for (int k = 0; k < slots(i + 1); ++k) graph.AddEdge(txf_id, fw_task(i + 1, m, k));

      sim::Task txb;
      txb.kind = sim::TaskKind::kTransfer;
      txb.variant = sim::TaskVariant::kGradient;
      txb.resource = layout.BackwardChannel(i);
      txb.duration = btx_time;
      txb.stage = i;
      txb.microbatch = m;
      txb.bytes = act;
      const sim::TaskId txb_id = graph.AddTask(txb);
      for (int k = 0; k < slots(i + 1); ++k) graph.AddEdge(fw_task(i + 1, m, k) + 1, txb_id);
      for (int k = 0; k < slots(i); ++k) graph.AddEdge(txb_id, fw_task(i, m, k) + 1);
    }
  }

  // --- Control dependencies: per-device execution order ------------------
  // One chain per replica of each device group, in the group's order from
  // BuildSchedule (a V group's order merges its two chunks). Every order is
  // a linear extension of the data dependencies, so adding its chain keeps
  // the graph acyclic. In round-robin mode a device only executes its
  // assigned micro-batches, all of them in slot 0.
  for (int g = 0; g < num_groups; ++g) {
    const int r = info[static_cast<std::size_t>(g)].exec->replication();
    const std::vector<ScheduleStep>& order = schedule.group_orders[static_cast<std::size_t>(g)];
    for (int rep = 0; rep < r; ++rep) {
      sim::TaskId prev = sim::kInvalidTask;
      int position = 0;
      for (const ScheduleStep& step : order) {
        if (!split && step.microbatch % r != rep) continue;
        const sim::TaskId current = fw_task(step.stage, step.microbatch, split ? rep : 0) +
                                    (step.weight_grad ? 2 : (step.is_backward ? 1 : 0));
        graph.mutable_task(current).priority = position++;
        if (prev != sim::kInvalidTask) graph.AddEdge(prev, current);
        prev = current;
      }
    }
  }

  // --- Gradient synchronization and weight update -------------------------
  // Under 2BP the weight gradients come from the BWW halves, so they (not
  // the BI halves) gate AllReduce/APPLY.
  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    const Bytes weights = model_->ParamBytes(si.plan->layer_begin, si.plan->layer_end);
    sim::TaskId ar_id = sim::kInvalidTask;
    if (si.exec->replication() > 1) {
      sim::Task ar;
      ar.kind = sim::TaskKind::kAllReduce;
      ar.resource = layout.AllReduceLane(i);
      // With overlap, gradient buckets synchronize while the final
      // micro-batch's backward still runs and only the exposed remainder
      // extends the iteration; without it, the whole ring AllReduce.
      ar.duration = estimator.ExposedAllReduce(si.plan->layer_begin, si.plan->layer_end,
                                               si.exec->devices, si.samples);
      ar.stage = i;
      ar.bytes = weights;
      ar_id = graph.AddTask(ar);
      for (int m = 0; m < m_total; ++m) {
        for (int k = 0; k < slots(i); ++k) graph.AddEdge(fw_task(i, m, k) + grad_offset, ar_id);
      }
    }
    for (int rep = 0; rep < si.exec->replication(); ++rep) {
      const topo::DeviceId dev = si.exec->devices[rep];
      sim::Task apply;
      apply.kind = sim::TaskKind::kApply;
      apply.resource = dev;
      apply.duration = static_cast<double>(weights) / comm::kMemcpyBandwidth;
      apply.stage = i;
      apply.device = dev;
      apply.priority = 1 << 20;  // after any scheduled FW/BW on the device
      const sim::TaskId apply_id = graph.AddTask(apply);
      if (ar_id != sim::kInvalidTask) {
        graph.AddEdge(ar_id, apply_id);
      } else {
        // An unreplicated stage: its one slot per micro-batch runs on `dev`.
        for (int m = 0; m < m_total; ++m) graph.AddEdge(fw_task(i, m, 0) + grad_offset, apply_id);
      }
    }
  }
  DAPPLE_CHECK_EQ(graph.num_tasks(), num_tasks);

  // --- Memory pools -------------------------------------------------------
  // A device's baseline is the sum over the stages its group hosts — one
  // stage for the linear schedules, two chunks for a V group.
  std::vector<Bytes> group_baseline(static_cast<std::size_t>(num_groups), 0);
  for (int i = 0; i < num_stages; ++i) {
    group_baseline[static_cast<std::size_t>(HostStage(kind, i, num_stages))] +=
        info[static_cast<std::size_t>(i)].baseline;
  }
  built.engine_options.pool_baselines.assign(static_cast<std::size_t>(num_devices), 0);
  built.engine_options.pool_capacities.assign(static_cast<std::size_t>(num_devices), 0);
  for (std::size_t g = 0; g < group_baseline.size(); ++g) {
    for (topo::DeviceId d : info[g].exec->devices.devices()) {
      built.engine_options.pool_baselines[static_cast<std::size_t>(d)] = group_baseline[g];
      if (options_.enforce_memory_capacity) {
        built.engine_options.pool_capacities[static_cast<std::size_t>(d)] = capacity;
      }
    }
  }

  return built;
}

}  // namespace dapple::runtime
