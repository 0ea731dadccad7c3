#include "runtime/graph_builder.h"

#include <algorithm>
#include <string>
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

planner::ParallelPlan PlanAsBuilt(planner::ParallelPlan plan, const BuildOptions& options) {
  if (options.schedule.recompute) {
    for (planner::StagePlan& stage : plan.stages) stage.recompute = true;
  }
  return plan;
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
  Bytes full_activation = 0;   // per in-flight micro-batch (no recompute)
  Bytes checkpoint = 0;        // per in-flight micro-batch (recompute)
  Bytes fw_alloc = 0;          // allocated at FW start
  Bytes bw_alloc = 0;          // transient working set at BW start
  Bytes bw_free = 0;           // released at BW end (2BP: at BWW end)
  int warmup = 0;
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
  const bool v_shape = IsVShape(kind);
  const bool split_bw = kind == ScheduleKind::kDappleSplitBw;
  comm::CostModel cost(*cluster_);

  int max_replication = 1;
  for (const auto& s : plan_->stages) max_replication = std::max(max_replication, s.replication());

  BuiltPipeline built;
  built.num_devices = num_devices;
  built.num_stages = num_stages;
  built.options = options_;
  if (options_.micro_batch_size > 0) {
    built.micro_batch_size = options_.micro_batch_size;
    built.num_micro_batches = static_cast<int>(
        std::max<long>(1, options_.global_batch_size / built.micro_batch_size));
  } else {
    const planner::MicroBatching mb = planner::ChooseMicroBatching(
        options_.global_batch_size, model_->profile_micro_batch(), max_replication,
        num_stages);
    built.micro_batch_size = mb.micro_batch_size;
    built.num_micro_batches = mb.num_micro_batches;
  }
  DAPPLE_CHECK_GT(built.micro_batch_size, 0);
  const int mbs = built.micro_batch_size;
  const int m_total = built.num_micro_batches;
  built.single_device_time = planner::LatencyEstimator(*model_, *cluster_)
                                 .SingleDeviceTime(static_cast<long>(mbs) * m_total);

  // The deterministic V order is shared with the validator; its realized
  // per-chunk depths become warmup_depths below.
  VSchedule vsched;
  if (v_shape) vsched = BuildVSchedule(kind, num_stages, m_total);

  // --- Per-stage costs and memory effects -------------------------------
  std::vector<StageInfo> info(static_cast<std::size_t>(num_stages));
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
    // A stage recomputes when the global schedule flag or its own plan
    // flag (set by the memory-constrained planner) asks for it.
    const bool recompute = options_.schedule.recompute || si.plan->recompute;
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
    si.full_activation =
        model_->ActivationMemory(si.plan->layer_begin, si.plan->layer_end, si.samples);
    si.checkpoint =
        model_->CheckpointMemory(si.plan->layer_begin, si.plan->layer_end, si.samples);
    if (recompute) {
      si.fw_alloc = si.checkpoint;
      // Transient working set while one layer block replays in backward.
      si.bw_alloc = model_->MaxLayerActivationMemory(si.plan->layer_begin,
                                                     si.plan->layer_end, si.samples);
      si.bw_free = si.fw_alloc + si.bw_alloc;
    } else {
      si.fw_alloc = si.full_activation;
      si.bw_alloc = 0;
      si.bw_free = si.full_activation;
    }

    if (v_shape) {
      // The realized in-flight depth of the deterministic V order (at most
      // the VStashCap bound; the greedy order may stay below it).
      si.warmup = vsched.in_flight[static_cast<std::size_t>(i)];
      continue;
    }

    // Memory-supported in-flight count D (the 1F1B family throttles;
    // GPipe's all-forwards injection is what we want to observe OOMing).
    int memory_limit = 0;
    if ((kind == ScheduleKind::kDapple || kind == ScheduleKind::kDappleSplitBw) &&
        options_.enforce_memory_capacity && si.fw_alloc > 0) {
      // 2BP holds one extra stash transiently: the next forward runs
      // between BI_m and BWW_m, before BWW_m frees micro-batch m.
      const Bytes reserve =
          si.baseline + si.bw_alloc + (split_bw ? si.fw_alloc : Bytes{0});
      const Bytes capacity =
          options_.memory_cap > 0 ? options_.memory_cap : cluster_->device().memory;
      if (capacity > reserve) {
        memory_limit = static_cast<int>((capacity - reserve) / std::max<Bytes>(si.fw_alloc, 1));
      }
      memory_limit = std::max(memory_limit, 1);
    }
    si.warmup =
        WarmupDepth(options_.schedule, i, num_stages, m_total, memory_limit);
  }
  // Warmup depths must be non-increasing along the pipeline: with the
  // interleaved order, stage i's B_m waits on stage i+1's B_m, which sits
  // behind F_{m+K_{i+1}-1} there — a K that grows downstream would deadlock
  // the control chains. Memory clamping can only lower a K, so restoring
  // monotonicity by lowering downstream stages keeps every stage feasible.
  // (The V shapes skip this: their order comes whole from BuildVSchedule,
  // whose caps are non-increasing by construction.)
  if (!v_shape) {
    for (int i = 1; i < num_stages; ++i) {
      info[static_cast<std::size_t>(i)].warmup =
          std::min(info[static_cast<std::size_t>(i)].warmup,
                   info[static_cast<std::size_t>(i - 1)].warmup);
    }
  }
  for (int i = 0; i < num_stages; ++i) {
    built.warmup_depths.push_back(info[static_cast<std::size_t>(i)].warmup);
  }

  // --- Resource ids ------------------------------------------------------
  const ResourceLayout layout = built.layout();

  sim::TaskGraph& graph = built.graph;

  // fw_tasks[i][m] / bw_tasks[i][m] / bww_tasks[i][m]: per-replica task ids
  // (one entry in round-robin mode). Under 2BP, bw_tasks holds the
  // backward-input halves (they carry the cross-stage gradient, so every
  // transfer keeps reading bw_tasks) and bww_tasks the weight halves.
  std::vector<std::vector<std::vector<sim::TaskId>>> fw_tasks(
      static_cast<std::size_t>(num_stages));
  std::vector<std::vector<std::vector<sim::TaskId>>> bw_tasks(
      static_cast<std::size_t>(num_stages));
  std::vector<std::vector<std::vector<sim::TaskId>>> bww_tasks(
      static_cast<std::size_t>(num_stages));

  auto replicas_for = [&](int stage, int micro) -> std::vector<int> {
    const int r = info[static_cast<std::size_t>(stage)].exec->replication();
    if (options_.replication == ReplicationMode::kSplitMicroBatch) {
      std::vector<int> all(static_cast<std::size_t>(r));
      for (int k = 0; k < r; ++k) all[static_cast<std::size_t>(k)] = k;
      return all;
    }
    return {micro % r};
  };

  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    fw_tasks[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
    bw_tasks[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
    bww_tasks[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
    for (int m = 0; m < m_total; ++m) {
      for (int rep : replicas_for(i, m)) {
        const topo::DeviceId dev = si.exec->devices[rep];
        const double dev_speed = cluster_->device_speed(dev);
        sim::Task fw;
        fw.name = "FW s" + std::to_string(i) + " m" + std::to_string(m) + " G" +
                  std::to_string(dev);
        fw.kind = sim::TaskKind::kForward;
        fw.resource = dev;
        fw.duration = si.forward / dev_speed;
        fw.pool = dev;
        fw.alloc_at_start = si.fw_alloc;
        fw.stage = i;
        fw.microbatch = m;
        fw.device = dev;
        fw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)].push_back(
            graph.AddTask(std::move(fw)));

        sim::Task bw;
        bw.name = (split_bw ? "BI s" : "BW s") + std::to_string(i) + " m" +
                  std::to_string(m) + " G" + std::to_string(dev);
        bw.kind = sim::TaskKind::kBackward;
        bw.resource = dev;
        bw.duration = (split_bw ? si.bw_input : si.backward) / dev_speed;
        bw.pool = dev;
        bw.alloc_at_start = si.bw_alloc;
        // 2BP: the stash (and the replay working set) stays live until the
        // weight half has consumed the activations; BWW frees it all.
        bw.free_at_end = split_bw ? Bytes{0} : si.bw_free;
        bw.stage = i;
        bw.microbatch = m;
        bw.device = dev;
        bw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)].push_back(
            graph.AddTask(std::move(bw)));

        if (split_bw) {
          sim::Task bww;
          bww.name = "BWW s" + std::to_string(i) + " m" + std::to_string(m) + " G" +
                     std::to_string(dev);
          bww.kind = sim::TaskKind::kBackwardWeight;
          bww.resource = dev;
          bww.duration = si.bw_weight / dev_speed;
          bww.pool = dev;
          bww.free_at_end = si.bw_free;
          bww.stage = i;
          bww.microbatch = m;
          bww.device = dev;
          bww_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)].push_back(
              graph.AddTask(std::move(bww)));
        }
      }
    }
  }

  // --- Data dependencies: FW chain, BW chain, cross-stage transfers ------
  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    for (int m = 0; m < m_total; ++m) {
      const auto& fws = fw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      const auto& bws = bw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      // Same-replica FW -> BW (activations live on the device).
      DAPPLE_CHECK_EQ(fws.size(), bws.size());
      for (std::size_t k = 0; k < fws.size(); ++k) graph.AddEdge(fws[k], bws[k]);
      if (split_bw) {
        // BI produces the intermediate gradients BWW contracts against.
        const auto& bwws =
            bww_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
        DAPPLE_CHECK_EQ(bws.size(), bwws.size());
        for (std::size_t k = 0; k < bws.size(); ++k) graph.AddEdge(bws[k], bwws[k]);
      }
    }
    if (i + 1 == num_stages) continue;

    const StageInfo& sn = info[static_cast<std::size_t>(i + 1)];
    const Bytes act = model_->ActivationAt(si.plan->layer_end, static_cast<double>(mbs));
    // Split micro-batches cross the boundary between the same replica sets
    // with the same bytes every time; co-located device sets (a V group's
    // two chunks, or the V bottom) degrade to a local memcpy inside
    // CrossStage.
    const bool split = options_.replication == ReplicationMode::kSplitMicroBatch;
    const TimeSec split_tx =
        split ? cost.CrossStage(si.exec->devices, sn.exec->devices, act) : 0.0;
    const TimeSec split_btx =
        split ? cost.CrossStage(sn.exec->devices, si.exec->devices, act) : 0.0;
    for (int m = 0; m < m_total; ++m) {
      const auto& src = fw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      const auto& dst = fw_tasks[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(m)];
      TimeSec tx_time;
      if (split) {
        tx_time = split_tx;
      } else {
        const topo::DeviceId a = graph.task(src.front()).device;
        const topo::DeviceId b = graph.task(dst.front()).device;
        tx_time = a == b ? 0.0 : cost.P2P(a, b, act);
      }
      sim::Task txf;
      txf.name = "TXf " + std::to_string(i) + "->" + std::to_string(i + 1) + " m" +
                 std::to_string(m);
      txf.kind = sim::TaskKind::kTransfer;
      txf.resource = layout.ForwardChannel(i);
      txf.duration = tx_time;
      txf.stage = i;
      txf.microbatch = m;
      txf.bytes = act;
      const sim::TaskId txf_id = graph.AddTask(std::move(txf));
      for (sim::TaskId t : src) graph.AddEdge(t, txf_id);
      for (sim::TaskId t : dst) graph.AddEdge(txf_id, t);

      const auto& bsrc = bw_tasks[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(m)];
      const auto& bdst = bw_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      TimeSec btx_time;
      if (split) {
        btx_time = split_btx;
      } else {
        const topo::DeviceId a = graph.task(bsrc.front()).device;
        const topo::DeviceId b = graph.task(bdst.front()).device;
        btx_time = a == b ? 0.0 : cost.P2P(a, b, act);
      }
      sim::Task txb;
      txb.name = "TXb " + std::to_string(i + 1) + "->" + std::to_string(i) + " m" +
                 std::to_string(m);
      txb.kind = sim::TaskKind::kTransfer;
      txb.resource = layout.BackwardChannel(i);
      txb.duration = btx_time;
      txb.stage = i;
      txb.microbatch = m;
      txb.bytes = act;
      const sim::TaskId txb_id = graph.AddTask(std::move(txb));
      for (sim::TaskId t : bsrc) graph.AddEdge(t, txb_id);
      for (sim::TaskId t : bdst) graph.AddEdge(txb_id, t);
    }
  }

  // --- Control dependencies: per-device execution order ------------------
  // Picks the concrete task of a schedule step for one replica slot.
  auto step_task = [&](int stage, bool is_backward, bool weight_grad, int micro,
                       int rep) -> sim::TaskId {
    const auto& arr = weight_grad ? bww_tasks : (is_backward ? bw_tasks : fw_tasks);
    const auto& list =
        arr[static_cast<std::size_t>(stage)][static_cast<std::size_t>(micro)];
    if (options_.replication == ReplicationMode::kRoundRobin) {
      DAPPLE_CHECK_EQ(list.size(), 1u);
      return list.front();
    }
    return list[static_cast<std::size_t>(rep)];
  };

  if (v_shape) {
    // One chain per device group: the merged two-chunk order from
    // BuildVSchedule. The chain follows the global tick order — a linear
    // extension of the data dependencies — so adding it keeps the graph
    // acyclic.
    const int groups = NumGroups(kind, num_stages);
    for (int g = 0; g < groups; ++g) {
      const int r = info[static_cast<std::size_t>(g)].exec->replication();
      const auto& order = vsched.group_orders[static_cast<std::size_t>(g)];
      for (int rep = 0; rep < r; ++rep) {
        sim::TaskId prev = sim::kInvalidTask;
        int position = 0;
        for (const GroupStep& step : order) {
          if (options_.replication == ReplicationMode::kRoundRobin &&
              step.microbatch % r != rep) {
            continue;
          }
          const sim::TaskId current =
              step_task(step.stage, step.is_backward, false, step.microbatch, rep);
          graph.mutable_task(current).priority = position++;
          if (prev != sim::kInvalidTask) graph.AddEdge(prev, current);
          prev = current;
        }
      }
    }
  } else {
    for (int i = 0; i < num_stages; ++i) {
      const StageInfo& si = info[static_cast<std::size_t>(i)];
      const int r = si.exec->replication();
      const std::vector<ScheduleStep> order =
          StageOrder(options_.schedule, i, num_stages, m_total, si.warmup);
      for (int rep = 0; rep < r; ++rep) {
        sim::TaskId prev = sim::kInvalidTask;
        int position = 0;
        for (const ScheduleStep& step : order) {
          // In round-robin mode a device only executes its assigned
          // micro-batches.
          if (options_.replication == ReplicationMode::kRoundRobin &&
              step.microbatch % r != rep) {
            continue;
          }
          const sim::TaskId current = step_task(i, step.is_backward, step.weight_grad,
                                                step.microbatch, rep);
          graph.mutable_task(current).priority = position++;
          if (prev != sim::kInvalidTask) graph.AddEdge(prev, current);
          prev = current;
        }
      }
    }
  }

  // --- Gradient synchronization and weight update -------------------------
  // Under 2BP the weight gradients come from the BWW halves, so they (not
  // the BI halves) gate AllReduce/APPLY.
  const auto& grad_tasks = split_bw ? bww_tasks : bw_tasks;
  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    const Bytes weights = model_->ParamBytes(si.plan->layer_begin, si.plan->layer_end);
    sim::TaskId ar_id = sim::kInvalidTask;
    if (si.exec->replication() > 1) {
      sim::Task ar;
      ar.name = "AR s" + std::to_string(i);
      ar.kind = sim::TaskKind::kAllReduce;
      ar.resource = layout.AllReduceLane(i);
      if (options_.overlap_allreduce) {
        // Gradient buckets synchronize while the final micro-batch's
        // backward is still running (reverse-layer order); only the
        // exposed remainder extends the iteration. The estimator and the
        // runtime share one overlap model so measured latencies track
        // planned ones.
        planner::LatencyOptions lat;
        lat.overlap_allreduce = true;
        planner::LatencyEstimator estimator(*model_, *cluster_, lat);
        ar.duration = estimator.ExposedAllReduce(si.plan->layer_begin, si.plan->layer_end,
                                                 si.exec->devices, si.samples);
      } else {
        ar.duration = cost.AllReduce(si.exec->devices, weights);
      }
      ar.stage = i;
      ar.bytes = weights;
      ar_id = graph.AddTask(std::move(ar));
      for (int m = 0; m < m_total; ++m) {
        for (sim::TaskId t :
             grad_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
          graph.AddEdge(t, ar_id);
        }
      }
    }
    for (int rep = 0; rep < si.exec->replication(); ++rep) {
      const topo::DeviceId dev = si.exec->devices[rep];
      sim::Task apply;
      apply.name = "APPLY s" + std::to_string(i) + " G" + std::to_string(dev);
      apply.kind = sim::TaskKind::kApply;
      apply.resource = dev;
      apply.duration =
          static_cast<double>(weights) / cost.options().memcpy_bandwidth;
      apply.stage = i;
      apply.device = dev;
      apply.priority = 1 << 20;  // after any scheduled FW/BW on the device
      const sim::TaskId apply_id = graph.AddTask(std::move(apply));
      if (ar_id != sim::kInvalidTask) {
        graph.AddEdge(ar_id, apply_id);
      } else {
        for (int m = 0; m < m_total; ++m) {
          for (sim::TaskId t :
               grad_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
            if (graph.task(t).device == dev) graph.AddEdge(t, apply_id);
          }
        }
      }
    }
  }

  // --- Memory pools -------------------------------------------------------
  // A device's baseline is the sum over the stages it hosts — one stage for
  // the linear schedules, a group's two chunks for the V shapes.
  built.engine_options.pool_baselines.assign(static_cast<std::size_t>(num_devices), 0);
  built.engine_options.pool_capacities.assign(static_cast<std::size_t>(num_devices), 0);
  for (int i = 0; i < num_stages; ++i) {
    const StageInfo& si = info[static_cast<std::size_t>(i)];
    if (v_shape && HostStage(kind, i, num_stages) != i) continue;
    Bytes baseline = si.baseline;
    if (v_shape) {
      const int partner = num_stages - 1 - i;
      if (partner != i) {
        baseline += info[static_cast<std::size_t>(partner)].baseline;
      }
    }
    for (topo::DeviceId d : si.exec->devices.devices()) {
      built.engine_options.pool_baselines[static_cast<std::size_t>(d)] = baseline;
      if (options_.enforce_memory_capacity) {
        built.engine_options.pool_capacities[static_cast<std::size_t>(d)] =
            options_.memory_cap > 0 ? options_.memory_cap : cluster_->device().memory;
      }
    }
  }

  return built;
}

}  // namespace dapple::runtime
