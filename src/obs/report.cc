#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "common/table.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/schedule.h"
#include "sim/engine.h"

namespace dapple::obs {

namespace {

std::string LinkName(const runtime::ResourceLayout& layout, int resource,
                     const sim::Task& sample) {
  if (sample.kind == sim::TaskKind::kAllReduce) {
    return "ar s" + std::to_string(sample.stage);
  }
  const int boundary = sample.stage;
  if (resource == layout.BackwardChannel(boundary)) {
    return "txb s" + std::to_string(boundary + 1) + "->s" + std::to_string(boundary);
  }
  return "txf s" + std::to_string(boundary) + "->s" + std::to_string(boundary + 1);
}

}  // namespace

IterationReport BuildIterationReport(const runtime::BuiltPipeline& pipeline,
                                     const sim::SimResult& result) {
  const sim::TaskGraph& graph = pipeline.graph;
  const runtime::ResourceLayout layout = pipeline.layout();
  IterationReport report;
  report.makespan = result.makespan;
  report.schedule = runtime::ToString(pipeline.options.schedule.kind);
  report.replication = runtime::ToString(pipeline.options.replication);
  for (std::uint8_t rc : pipeline.stage_recompute) report.recompute_stages += rc ? 1 : 0;
  report.recompute = report.recompute_stages > 0 &&
                     report.recompute_stages == static_cast<int>(pipeline.stage_recompute.size());
  report.memory_cap = pipeline.options.memory_cap;
  report.micro_batch_size = pipeline.micro_batch_size;
  report.num_micro_batches = pipeline.num_micro_batches;
  report.num_stages = static_cast<int>(pipeline.warmup_depths.size());
  if (report.makespan > 0.0) {
    report.throughput = static_cast<double>(pipeline.micro_batch_size) *
                        pipeline.num_micro_batches / report.makespan;
    report.speedup = pipeline.single_device_time / report.makespan;
  }

  // --- Pass over the records: per-device, per-stage, per-link, phases ----
  std::map<int, DeviceReport> devices;           // device id -> report
  std::map<int, StageReport> stages;             // stage -> report
  std::map<sim::ResourceId, LinkReport> links;   // comm resource -> report
  TimeSec first_backward = std::numeric_limits<TimeSec>::infinity();
  TimeSec last_forward = 0.0;

  for (const sim::TaskRecord& rec : result.records) {
    if (!rec.executed || rec.id == sim::kInvalidTask) continue;
    const sim::Task& task = graph.task(rec.id);
    const TimeSec duration = rec.end - rec.start;

    if (sim::IsComputeKind(task.kind) && task.device >= 0) {
      DeviceReport& dev = devices[task.device];
      dev.device = task.device;
      if (task.stage >= 0) dev.stage = task.stage;
      switch (task.kind) {
        case sim::TaskKind::kForward:
        case sim::TaskKind::kRecompute:
          dev.forward_busy += duration;
          last_forward = std::max(last_forward, rec.end);
          break;
        case sim::TaskKind::kBackward:
          dev.backward_busy += duration;
          first_backward = std::min(first_backward, rec.start);
          break;
        // 2BP weight halves count as backward work, but the warmup phase
        // boundary keys off the backward-input halves (kBackward) only.
        case sim::TaskKind::kBackwardWeight:
          dev.backward_busy += duration;
          break;
        case sim::TaskKind::kApply: dev.apply_busy += duration; break;
        default: break;
      }
      report.split.compute += task.kind == sim::TaskKind::kApply ? 0.0 : duration;
      if (task.kind == sim::TaskKind::kApply) report.split.apply += duration;
      if (task.stage >= 0) {
        StageReport& stage = stages[task.stage];
        stage.stage = task.stage;
        if (std::find(stage.devices.begin(), stage.devices.end(), task.device) ==
            stage.devices.end()) {
          stage.devices.push_back(task.device);
        }
        if (task.kind == sim::TaskKind::kForward) stage.forward_busy += duration;
        if (task.kind == sim::TaskKind::kBackward ||
            task.kind == sim::TaskKind::kBackwardWeight) {
          stage.backward_busy += duration;
        }
      }
    } else if (task.kind == sim::TaskKind::kTransfer ||
               task.kind == sim::TaskKind::kAllReduce) {
      LinkReport& link = links[task.resource];
      if (link.resource < 0) {
        link.resource = task.resource;
        link.name = LinkName(layout, task.resource, task);
      }
      link.transfers += 1;
      link.busy += duration;
      link.bytes += task.bytes;
      if (task.kind == sim::TaskKind::kTransfer) {
        report.split.transfer += duration;
        const bool backward = task.resource == layout.BackwardChannel(task.stage);
        if (!backward && task.stage >= 0) {
          stages[task.stage].outbound_transfer += duration;
          stages[task.stage + 1].inbound_transfer += duration;
        }
      } else {
        report.split.allreduce += duration;
        if (task.stage >= 0) stages[task.stage].allreduce += duration;
      }
    }
  }

  // --- Phase boundaries (Fig. 4): warmup | steady | drain ----------------
  report.phases.warmup_end =
      std::isfinite(first_backward) ? first_backward : report.makespan;
  report.phases.steady_end = std::max(report.phases.warmup_end, last_forward);
  report.phases.warmup = report.phases.warmup_end;
  report.phases.steady = report.phases.steady_end - report.phases.warmup_end;
  report.phases.drain = report.makespan - report.phases.steady_end;

  // --- Per-device rollups ------------------------------------------------
  double bubble_sum = 0.0;
  double utilization_sum = 0.0;
  unsigned long long peak_sum = 0;
  for (auto& [id, dev] : devices) {
    const auto& usage = result.resources.at(static_cast<std::size_t>(id));
    dev.compute_busy = usage.compute_busy;
    dev.first_start = usage.first_start;
    dev.last_end = usage.last_end;
    dev.tasks_executed = usage.tasks_executed;
    dev.utilization = result.ComputeUtilization(id);
    dev.bubble_ratio = 1.0 - dev.utilization;
    if (static_cast<std::size_t>(id) < result.pools.size()) {
      const sim::MemoryPool& pool = result.pools[static_cast<std::size_t>(id)];
      dev.peak_memory = pool.peak();
      dev.baseline_memory = pool.baseline();
      dev.oom = pool.oom();
      report.max_peak_memory = std::max(report.max_peak_memory, dev.peak_memory);
      report.oom = report.oom || dev.oom;
    }
    bubble_sum += dev.bubble_ratio;
    utilization_sum += dev.utilization;
    peak_sum += dev.peak_memory;
    report.devices.push_back(dev);
  }
  report.num_devices = static_cast<int>(report.devices.size());
  if (report.num_devices > 0) {
    report.bubble_fraction = bubble_sum / report.num_devices;
    report.utilization = utilization_sum / report.num_devices;
    report.avg_peak_memory =
        static_cast<Bytes>(peak_sum / static_cast<unsigned>(report.num_devices));
  }

  // --- Per-stage rollups -------------------------------------------------
  for (auto& [s, stage] : stages) {
    std::sort(stage.devices.begin(), stage.devices.end());
    const int replicas = std::max<int>(1, static_cast<int>(stage.devices.size()));
    stage.forward_busy /= replicas;
    stage.backward_busy /= replicas;
    if (s < static_cast<int>(pipeline.warmup_depths.size())) {
      stage.warmup_depth = pipeline.warmup_depths[static_cast<std::size_t>(s)];
    }
    double util = 0.0;
    for (int d : stage.devices) {
      util += result.ComputeUtilization(d);
      if (static_cast<std::size_t>(d) < result.pools.size()) {
        stage.peak_memory = std::max(stage.peak_memory,
                                     result.pools[static_cast<std::size_t>(d)].peak());
      }
    }
    stage.utilization = util / replicas;
    stage.bubble_ratio = 1.0 - stage.utilization;
    report.stages.push_back(stage);
  }

  for (auto& [r, link] : links) {
    link.occupancy = report.makespan > 0.0 ? link.busy / report.makespan : 0.0;
    report.links.push_back(link);
  }

  // --- Memory pools ------------------------------------------------------
  for (std::size_t p = 0; p < result.pools.size(); ++p) {
    const sim::MemoryPool& pool = result.pools[p];
    if (pool.peak() == 0 && pool.baseline() == 0) continue;
    PoolReport pr;
    pr.pool = static_cast<int>(p);
    pr.peak = pool.peak();
    pr.baseline = pool.baseline();
    pr.capacity = pool.capacity();
    pr.oom = pool.oom();
    pr.peak_time = pool.peak_time();
    report.pools.push_back(pr);
  }
  return report;
}

IterationReport RunIteration(const model::ModelProfile& model, const topo::Cluster& cluster,
                             const planner::ParallelPlan& plan,
                             const runtime::BuildOptions& options) {
  const runtime::ExecutionDetail detail =
      runtime::PipelineExecutor(model, cluster, plan, options).RunDetailed();
  return BuildIterationReport(detail.pipeline, detail.result);
}

void WriteJson(JsonWriter& w, const IterationReport& r) {
  w.BeginObject();
  w.Field("makespan", r.makespan);
  w.Field("schedule", r.schedule);
  w.Field("replication", r.replication);
  w.Field("recompute", r.recompute);
  // Cap/per-stage-recompute fields only when in play, so reports of
  // uncapped pipelines (including the goldens) are byte-identical to
  // before these knobs existed.
  if (r.memory_cap > 0 || r.recompute_stages > 0) {
    w.Field("memory_cap", r.memory_cap);
    w.Field("recompute_stages", r.recompute_stages);
  }
  w.Field("micro_batch_size", r.micro_batch_size);
  w.Field("num_micro_batches", r.num_micro_batches);
  w.Field("num_stages", r.num_stages);
  w.Field("num_devices", r.num_devices);
  w.Field("bubble_fraction", r.bubble_fraction);
  w.Field("throughput", r.throughput);
  w.Field("max_peak_memory", r.max_peak_memory);
  w.Field("oom", r.oom);

  w.Key("time_split").BeginObject();
  w.Field("compute", r.split.compute);
  w.Field("apply", r.split.apply);
  w.Field("transfer", r.split.transfer);
  w.Field("allreduce", r.split.allreduce);
  w.EndObject();

  w.Key("phases").BeginObject();
  w.Field("warmup_end", r.phases.warmup_end);
  w.Field("steady_end", r.phases.steady_end);
  w.Field("warmup", r.phases.warmup);
  w.Field("steady", r.phases.steady);
  w.Field("drain", r.phases.drain);
  w.EndObject();

  w.Key("devices").BeginArray();
  for (const DeviceReport& d : r.devices) {
    w.BeginObject();
    w.Field("device", d.device);
    w.Field("stage", d.stage);
    w.Field("forward_busy", d.forward_busy);
    w.Field("backward_busy", d.backward_busy);
    w.Field("apply_busy", d.apply_busy);
    w.Field("compute_busy", d.compute_busy);
    w.Field("utilization", d.utilization);
    w.Field("bubble_ratio", d.bubble_ratio);
    w.Field("first_start", d.first_start);
    w.Field("last_end", d.last_end);
    w.Field("tasks_executed", d.tasks_executed);
    w.Field("peak_memory", d.peak_memory);
    w.Field("baseline_memory", d.baseline_memory);
    w.Field("oom", d.oom);
    w.EndObject();
  }
  w.EndArray();

  w.Key("stages").BeginArray();
  for (const StageReport& s : r.stages) {
    w.BeginObject();
    w.Field("stage", s.stage);
    w.Key("devices").BeginArray();
    for (int d : s.devices) w.Value(d);
    w.EndArray();
    w.Field("warmup_depth", s.warmup_depth);
    w.Field("forward_busy", s.forward_busy);
    w.Field("backward_busy", s.backward_busy);
    w.Field("allreduce", s.allreduce);
    w.Field("inbound_transfer", s.inbound_transfer);
    w.Field("outbound_transfer", s.outbound_transfer);
    w.Field("utilization", s.utilization);
    w.Field("bubble_ratio", s.bubble_ratio);
    w.Field("peak_memory", s.peak_memory);
    w.EndObject();
  }
  w.EndArray();

  w.Key("links").BeginArray();
  for (const LinkReport& l : r.links) {
    w.BeginObject();
    w.Field("resource", l.resource);
    w.Field("name", l.name);
    w.Field("transfers", l.transfers);
    w.Field("busy", l.busy);
    w.Field("bytes", l.bytes);
    w.Field("occupancy", l.occupancy);
    w.EndObject();
  }
  w.EndArray();

  w.Key("pools").BeginArray();
  for (const PoolReport& p : r.pools) {
    w.BeginObject();
    w.Field("pool", p.pool);
    w.Field("peak", p.peak);
    w.Field("baseline", p.baseline);
    w.Field("capacity", p.capacity);
    w.Field("peak_time", p.peak_time);
    w.Field("oom", p.oom);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
}

std::string ToJson(const IterationReport& r) {
  JsonWriter w;
  WriteJson(w, r);
  return w.str();
}

std::string ToText(const IterationReport& r) {
  std::ostringstream os;
  os << "iteration: " << FormatTime(r.makespan) << " | " << r.schedule << "/"
     << r.replication << (r.recompute ? "/recompute" : "") << " | M=" << r.num_micro_batches
     << " x mbs=" << r.micro_batch_size << " | " << r.num_stages << " stages on "
     << r.num_devices << " devices\n";
  if (r.memory_cap > 0 || r.recompute_stages > 0) {
    os << "memory cap " << (r.memory_cap > 0 ? FormatBytes(r.memory_cap) : "none")
       << " | " << r.recompute_stages << "/" << r.num_stages
       << " stages recompute\n";
  }
  os << "bubble fraction " << AsciiTable::Num(100 * r.bubble_fraction, 1) << "% | throughput "
     << AsciiTable::Num(r.throughput, 2) << " samples/s | peak "
     << FormatBytes(r.max_peak_memory) << (r.oom ? " (OOM!)" : "") << "\n";
  os << "phases: warmup " << FormatTime(r.phases.warmup) << " | steady "
     << FormatTime(r.phases.steady) << " | drain " << FormatTime(r.phases.drain) << "\n";
  os << "busy split: compute " << FormatTime(r.split.compute) << " | transfer "
     << FormatTime(r.split.transfer) << " | allreduce " << FormatTime(r.split.allreduce)
     << " | apply " << FormatTime(r.split.apply) << "\n";

  AsciiTable devices({"Device", "Stage", "FW busy", "BW busy", "Util", "Bubble", "Peak mem"});
  for (const DeviceReport& d : r.devices) {
    devices.AddRow({AsciiTable::Int(d.device), AsciiTable::Int(d.stage),
                    FormatTime(d.forward_busy), FormatTime(d.backward_busy),
                    AsciiTable::Num(100 * d.utilization, 1) + "%",
                    AsciiTable::Num(100 * d.bubble_ratio, 1) + "%",
                    FormatBytes(d.peak_memory) + (d.oom ? "!" : "")});
  }
  os << devices.ToString();

  AsciiTable stages({"Stage", "Devices", "K", "FW", "BW", "AllReduce", "TX in", "TX out",
                     "Bubble"});
  for (const StageReport& s : r.stages) {
    std::string devs;
    for (std::size_t i = 0; i < s.devices.size(); ++i) {
      devs += (i > 0 ? "," : "") + std::to_string(s.devices[i]);
    }
    stages.AddRow({AsciiTable::Int(s.stage), devs, AsciiTable::Int(s.warmup_depth),
                   FormatTime(s.forward_busy), FormatTime(s.backward_busy),
                   FormatTime(s.allreduce), FormatTime(s.inbound_transfer),
                   FormatTime(s.outbound_transfer),
                   AsciiTable::Num(100 * s.bubble_ratio, 1) + "%"});
  }
  os << stages.ToString();

  if (!r.links.empty()) {
    AsciiTable links({"Link", "Transfers", "Busy", "Bytes", "Occupancy"});
    for (const LinkReport& l : r.links) {
      links.AddRow({l.name, AsciiTable::Int(l.transfers), FormatTime(l.busy),
                    FormatBytes(l.bytes), AsciiTable::Num(100 * l.occupancy, 1) + "%"});
    }
    os << links.ToString();
  }
  return os.str();
}

std::vector<PeakVsMPoint> PeakVsMCurve(const model::ModelProfile& model,
                                       const topo::Cluster& cluster,
                                       const planner::ParallelPlan& plan,
                                       runtime::BuildOptions options,
                                       const std::vector<int>& micro_batch_counts,
                                       int sim_threads) {
  // Resolve the micro-batch size once so every point runs identical
  // per-micro-batch work and only M varies.
  const runtime::BuiltPipeline base =
      runtime::GraphBuilder(model, cluster, plan, options).Build();
  options.micro_batch_size = base.micro_batch_size;

  std::vector<int> counts;
  counts.reserve(micro_batch_counts.size());
  for (int m : micro_batch_counts) {
    if (m >= 1) counts.push_back(m);
  }
  const int n = static_cast<int>(counts.size());

  // Every point is built (cheap, and the build is what knows the exact
  // per-stage warmup depths); slot-indexed results keep the curve
  // byte-identical to the serial loop at every thread count.
  ThreadPool pool(static_cast<std::size_t>(sim_threads));
  std::vector<runtime::BuiltPipeline> builds =
      pool.Map<runtime::BuiltPipeline>(counts.size(), [&](std::size_t i) {
        runtime::BuildOptions point_options = options;
        point_options.global_batch_size =
            static_cast<long>(base.micro_batch_size) * counts[i];
        return runtime::GraphBuilder(model, cluster, plan, point_options).Build();
      });

  // The simulation pre-filter: a point whose stash discipline — per-stage
  // warmup depths plus recompute flags at the fixed micro-batch size —
  // matches an earlier point holds exactly the same stash sets, so its peak
  // equals the earlier point's and the simulation is provably redundant.
  // DAPPLE saturates warmup at M >= S - i and collapses to one simulation;
  // GPipe's depth is M itself, so nothing ever dedups. Points are grouped
  // in curve order, making the representative choice deterministic.
  std::vector<int> rep_of(static_cast<std::size_t>(n));
  std::vector<int> reps;
  reps.reserve(static_cast<std::size_t>(n));
  std::map<std::pair<std::vector<int>, std::vector<std::uint8_t>>, int> seen;
  for (int i = 0; i < n; ++i) {
    const runtime::BuiltPipeline& b = builds[static_cast<std::size_t>(i)];
    if (b.warmup_depths.empty()) {
      // No discipline signature — never dedup such a point.
      rep_of[static_cast<std::size_t>(i)] = i;
      reps.push_back(i);
      continue;
    }
    const auto [it, inserted] = seen.try_emplace({b.warmup_depths, b.stage_recompute}, i);
    rep_of[static_cast<std::size_t>(i)] = it->second;
    if (inserted) reps.push_back(i);
  }

  const std::vector<Bytes> peaks = pool.Map<Bytes>(reps.size(), [&](std::size_t r) {
    const runtime::BuiltPipeline& b = builds[static_cast<std::size_t>(reps[r])];
    return sim::Engine::Run(b.graph, b.engine_options).MaxPeakMemory();
  });
  std::vector<Bytes> peak_of(static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < reps.size(); ++r) {
    peak_of[static_cast<std::size_t>(reps[r])] = peaks[r];
  }

  MetricsRegistry::Global()
      .counter("report.peak_vs_m.skipped")
      .Increment(static_cast<std::int64_t>(n) - static_cast<std::int64_t>(reps.size()));

  std::vector<PeakVsMPoint> curve;
  curve.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    curve.push_back(PeakVsMPoint{
        builds[static_cast<std::size_t>(i)].num_micro_batches,
        peak_of[static_cast<std::size_t>(rep_of[static_cast<std::size_t>(i)])]});
  }
  return curve;
}

}  // namespace dapple::obs
