#include "check/validator.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.h"
#include "runtime/schedule.h"

namespace dapple::check {

namespace {

constexpr double kEps = 1e-9;

/// (start, end, id) triple used to order tasks on a timeline; ties broken
/// deterministically by end then id.
struct Interval {
  TimeSec start = 0.0;
  TimeSec end = 0.0;
  sim::TaskId id = sim::kInvalidTask;
  bool operator<(const Interval& other) const {
    if (start != other.start) return start < other.start;
    if (end != other.end) return end < other.end;
    return id < other.id;
  }
};

std::string TaskLabel(const sim::TaskGraph& graph, sim::TaskId id) {
  std::ostringstream os;
  os << "task " << id << " '" << sim::TaskName(graph.task(id)) << "'";
  return os.str();
}

/// True when `graph` has the edge `from` -> `to`. Edges live only in the
/// successor lists, so fan-in checks ask each producer instead of reading a
/// predecessor list.
bool Feeds(const sim::TaskGraph& graph, sim::TaskId from, sim::TaskId to) {
  const auto& succs = graph.successors(from);
  return std::find(succs.begin(), succs.end(), to) != succs.end();
}

}  // namespace

bool ValidationReport::Has(std::string_view code) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

std::string ValidationReport::ToString() const {
  if (violations.empty()) return "OK (" + std::to_string(checks_run) + " invariant families)";
  std::ostringstream os;
  os << violations.size() << " violation(s):\n";
  for (const Violation& v : violations) {
    os << "  [" << v.code << "] " << v.message << "\n";
  }
  return os.str();
}

ScheduleValidator::ScheduleValidator(const planner::ParallelPlan& plan,
                                     runtime::BuildOptions options)
    : plan_(&plan), options_(std::move(options)) {
  DAPPLE_CHECK_GT(plan.num_stages(), 0) << "empty plan";
}

ValidationReport ScheduleValidator::Validate(const runtime::BuiltPipeline& built,
                                             const sim::SimResult& result) const {
  ValidationReport report;
  auto add = [&](std::string_view code, const std::string& message) {
    report.violations.push_back({std::string(code), message});
  };

  const sim::TaskGraph& graph = built.graph;
  const int n = graph.num_tasks();
  const int num_stages = plan_->num_stages();
  const int m_total = built.num_micro_batches;
  const bool split = options_.replication == runtime::ReplicationMode::kSplitMicroBatch;
  const runtime::ScheduleKind kind = options_.schedule.kind;
  const bool split_bw = kind == runtime::ScheduleKind::kDappleSplitBw;
  // Device/replication source per stage: the host group's stage for the V
  // shapes (chunk c folds onto stage min(c, S-1-c)), the stage itself
  // otherwise. Re-derived here, independently of the builder's folding.
  auto exec_stage = [&](int i) -> const planner::StagePlan& {
    return plan_->stages[static_cast<std::size_t>(
        runtime::HostStage(kind, i, num_stages))];
  };

  if (static_cast<int>(result.records.size()) != n) {
    add(kViolationTaskCount, "result has " + std::to_string(result.records.size()) +
                                 " records for " + std::to_string(n) + " tasks");
    return report;  // nothing else is meaningful
  }
  if (static_cast<int>(built.warmup_depths.size()) != num_stages) {
    add(kViolationWarmupShape,
        "pipeline reports " + std::to_string(built.warmup_depths.size()) +
            " warmup depths for " + std::to_string(num_stages) + " stages");
    return report;
  }
  // The schedule the reported depths imply. On a valid pipeline it
  // reproduces them exactly (the V depths are realized counts, an exact
  // expectation; a linear depth is its own memory limit).
  const runtime::PipelineSchedule schedule =
      runtime::BuildSchedule(options_.schedule, num_stages, m_total, built.warmup_depths);

  // --- Index tasks by role -----------------------------------------------
  // fw[i][m] / bw[i][m] / bww[i][m]: per-replica compute tasks (bw holds
  // 2BP's backward-input halves, bww its deferred weight halves); ar[i]:
  // gradient syncs; apply[i]: weight updates.
  std::vector<std::vector<std::vector<sim::TaskId>>> fw(
      static_cast<std::size_t>(num_stages)),
      bw(static_cast<std::size_t>(num_stages)),
      bww(static_cast<std::size_t>(num_stages));
  std::vector<std::vector<sim::TaskId>> ar(static_cast<std::size_t>(num_stages)),
      apply(static_cast<std::size_t>(num_stages));
  for (int i = 0; i < num_stages; ++i) {
    fw[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
    bw[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
    bww[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(m_total));
  }
  for (const sim::Task& t : graph.tasks()) {
    const bool staged = t.stage >= 0 && t.stage < num_stages;
    switch (t.kind) {
      case sim::TaskKind::kForward:
      case sim::TaskKind::kBackward:
      case sim::TaskKind::kBackwardWeight: {
        if (!staged || t.microbatch < 0 || t.microbatch >= m_total) {
          add(kViolationTaskCount, TaskLabel(graph, t.id) + " has out-of-range stage/microbatch");
          continue;
        }
        auto& slot = t.kind == sim::TaskKind::kForward
                         ? fw
                         : (t.kind == sim::TaskKind::kBackward ? bw : bww);
        slot[static_cast<std::size_t>(t.stage)][static_cast<std::size_t>(t.microbatch)]
            .push_back(t.id);
        break;
      }
      case sim::TaskKind::kAllReduce:
        if (staged) ar[static_cast<std::size_t>(t.stage)].push_back(t.id);
        break;
      case sim::TaskKind::kApply:
        if (staged) apply[static_cast<std::size_t>(t.stage)].push_back(t.id);
        break;
      default: break;
    }
  }

  // --- (a1) every task executed, inside the makespan ---------------------
  ++report.checks_run;
  TimeSec max_end = 0.0;
  for (sim::TaskId t = 0; t < n; ++t) {
    const sim::TaskRecord& rec = result.records[static_cast<std::size_t>(t)];
    if (!rec.executed) {
      add(kViolationNotExecuted, TaskLabel(graph, t) + " never executed");
      continue;
    }
    if (rec.start < -kEps || rec.end + kEps < rec.start) {
      add(kViolationMakespan, TaskLabel(graph, t) + " has an inverted interval");
    }
    max_end = std::max(max_end, rec.end);
  }
  if (std::abs(max_end - result.makespan) > kEps) {
    std::ostringstream os;
    os << "makespan " << result.makespan << " != last task end " << max_end;
    add(kViolationMakespan, os.str());
  }
  if (report.Has(kViolationNotExecuted)) return report;  // timing checks need records

  // --- (a2) resource exclusivity -----------------------------------------
  ++report.checks_run;
  std::map<sim::ResourceId, std::vector<Interval>> by_resource;
  for (sim::TaskId t = 0; t < n; ++t) {
    const sim::TaskRecord& rec = result.records[static_cast<std::size_t>(t)];
    by_resource[graph.task(t).resource].push_back({rec.start, rec.end, t});
  }
  for (auto& [resource, intervals] : by_resource) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t k = 1; k < intervals.size(); ++k) {
      if (intervals[k].start + kEps < intervals[k - 1].end) {
        std::ostringstream os;
        os << TaskLabel(graph, intervals[k].id) << " starts at " << intervals[k].start
           << " while " << TaskLabel(graph, intervals[k - 1].id) << " runs until "
           << intervals[k - 1].end << " on resource " << resource;
        add(kViolationResourceOverlap, os.str());
      }
    }
  }

  // --- (a3) dependency order ---------------------------------------------
  ++report.checks_run;
  for (sim::TaskId t = 0; t < n; ++t) {
    const TimeSec pred_end = result.records[static_cast<std::size_t>(t)].end;
    for (sim::TaskId succ : graph.successors(t)) {
      if (result.records[static_cast<std::size_t>(succ)].start + kEps < pred_end) {
        std::ostringstream os;
        os << TaskLabel(graph, succ) << " starts before its predecessor "
           << TaskLabel(graph, t) << " ends";
        add(kViolationDependencyOrder, os.str());
      }
    }
  }

  // --- warmup depth shape -------------------------------------------------
  ++report.checks_run;
  for (int i = 0; i < num_stages; ++i) {
    const int k = built.warmup_depths[static_cast<std::size_t>(i)];
    if (options_.schedule.kind == runtime::ScheduleKind::kGPipe) {
      if (k != m_total) {
        add(kViolationWarmupShape, "GPipe stage " + std::to_string(i) +
                                       " reports warmup " + std::to_string(k) +
                                       " != M = " + std::to_string(m_total));
      }
      continue;
    }
    if (runtime::IsVShape(kind)) {
      const int want = schedule.depths[static_cast<std::size_t>(i)];
      if (k != want) {
        add(kViolationWarmupShape, ToString(kind) + std::string(" chunk ") +
                                       std::to_string(i) + " reports depth " +
                                       std::to_string(k) + " != V order's " +
                                       std::to_string(want));
      }
      const int cap = runtime::VStashCap(kind, i, num_stages);
      if (k > std::min(cap, m_total)) {
        add(kViolationWarmupShape, ToString(kind) + std::string(" chunk ") +
                                       std::to_string(i) + " depth " + std::to_string(k) +
                                       " exceeds its stash cap " + std::to_string(cap));
      }
      continue;
    }
    if (k < 1 || k > m_total) {
      add(kViolationWarmupShape, "stage " + std::to_string(i) + " warmup depth " +
                                     std::to_string(k) + " outside [1, M=" +
                                     std::to_string(m_total) + "]");
    }
    // A warmup depth growing downstream would deadlock the interleaved
    // control chains (see graph_builder.cc); the builder must clamp it.
    if (i > 0 && k > built.warmup_depths[static_cast<std::size_t>(i - 1)]) {
      add(kViolationWarmupShape,
          "stage " + std::to_string(i) + " warmup depth " + std::to_string(k) +
              " exceeds upstream stage's " +
              std::to_string(built.warmup_depths[static_cast<std::size_t>(i - 1)]));
    }
  }

  // --- (b) per-device compute total order matches the schedule ------------
  // Every device of group g must follow the group's order exactly (GPipe's
  // LIFO backward, 2BP's deferred weight halves, a V group's merged two
  // chunks), restricted to its own micro-batches in round-robin mode.
  ++report.checks_run;
  for (int g = 0; g < runtime::NumGroups(kind, num_stages); ++g) {
    const planner::StagePlan& host = exec_stage(g);
    const int r = host.replication();
    const std::vector<runtime::ScheduleStep>& order =
        schedule.group_orders[static_cast<std::size_t>(g)];
    for (int rep = 0; rep < r; ++rep) {
      const topo::DeviceId dev = host.devices[rep];
      std::vector<runtime::ScheduleStep> expected;
      for (const runtime::ScheduleStep& step : order) {
        if (split || step.microbatch % r == rep) expected.push_back(step);
      }
      // The order the device actually followed, reconstructed from start
      // times over every chunk the group hosts.
      std::vector<Interval> ran;
      for (int i = 0; i < num_stages; ++i) {
        if (runtime::HostStage(kind, i, num_stages) != g) continue;
        for (int m = 0; m < m_total; ++m) {
          for (const auto* list :
               {&fw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)],
                &bw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)],
                &bww[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]}) {
            for (sim::TaskId t : *list) {
              if (graph.task(t).device != dev) continue;
              const sim::TaskRecord& rec = result.records[static_cast<std::size_t>(t)];
              ran.push_back({rec.start, rec.end, t});
            }
          }
        }
      }
      std::sort(ran.begin(), ran.end());
      if (ran.size() != expected.size()) {
        add(kViolationScheduleOrder,
            "group " + std::to_string(g) + " device " + std::to_string(dev) + " ran " +
                std::to_string(ran.size()) + " compute tasks, schedule has " +
                std::to_string(expected.size()));
        continue;
      }
      auto step_name = [](bool backward, bool weight) {
        return weight ? "BWW" : (backward ? "BW" : "FW");
      };
      for (std::size_t k = 0; k < ran.size(); ++k) {
        const sim::Task& t = graph.task(ran[k].id);
        const bool is_backward = t.kind != sim::TaskKind::kForward;
        const bool weight_grad = t.kind == sim::TaskKind::kBackwardWeight;
        const runtime::ScheduleStep& want = expected[k];
        if (t.stage != want.stage || is_backward != want.is_backward ||
            weight_grad != want.weight_grad || t.microbatch != want.microbatch) {
          std::ostringstream os;
          os << "group " << g << " device " << dev << " position " << k << ": ran "
             << step_name(is_backward, weight_grad) << " s" << t.stage << " m"
             << t.microbatch << ", schedule says "
             << step_name(want.is_backward, want.weight_grad) << " s" << want.stage << " m"
             << want.microbatch;
          add(kViolationScheduleOrder, os.str());
          break;  // one mismatch per device keeps reports readable
        }
      }
    }
  }

  // --- (c) in-flight activations never exceed the warmup depth ------------
  // A micro-batch's activations are live on a device from its FW start (the
  // engine applies alloc_at_start there) until the end of the task that
  // carries free_at_end — BW normally, the deferred BWW under 2BP. The 2BP
  // steady pattern [BI_m, FW_{m+K}, BWW_m] runs the next forward before
  // BWW_m frees micro-batch m, so one transient extra stash is legal.
  ++report.checks_run;
  const auto& free_tasks = split_bw ? bww : bw;
  for (int i = 0; i < num_stages; ++i) {
    const planner::StagePlan& stage = exec_stage(i);
    const int limit =
        built.warmup_depths[static_cast<std::size_t>(i)] + (split_bw ? 1 : 0);
    for (topo::DeviceId dev : stage.devices.devices()) {
      // (time, delta); frees sort before allocations at equal times, the
      // engine's completion-before-dispatch order.
      std::vector<std::pair<TimeSec, int>> events;
      for (int m = 0; m < m_total; ++m) {
        for (sim::TaskId t : fw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
          if (graph.task(t).device == dev) {
            events.emplace_back(result.records[static_cast<std::size_t>(t)].start, +1);
          }
        }
        for (sim::TaskId t :
             free_tasks[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
          if (graph.task(t).device == dev) {
            events.emplace_back(result.records[static_cast<std::size_t>(t)].end, -1);
          }
        }
      }
      std::sort(events.begin(), events.end());
      int in_flight = 0, peak = 0;
      for (const auto& [time, delta] : events) {
        (void)time;
        in_flight += delta;
        peak = std::max(peak, in_flight);
      }
      if (peak > limit) {
        add(kViolationWarmupExceeded,
            "stage " + std::to_string(i) + " device " + std::to_string(dev) + " held " +
                std::to_string(peak) + " micro-batches in flight, warmup depth is " +
                std::to_string(limit));
      }
    }
  }

  // --- (d) memory accounting conserves ------------------------------------
  ++report.checks_run;
  const int num_pools = static_cast<int>(result.pools.size());
  std::vector<Bytes> alloc_total(static_cast<std::size_t>(num_pools), 0);
  std::vector<Bytes> free_total(static_cast<std::size_t>(num_pools), 0);
  for (const sim::Task& t : graph.tasks()) {
    if (t.pool < 0) continue;
    if (t.pool >= num_pools) {
      add(kViolationMemoryBaseline,
          TaskLabel(graph, t.id) + " touches pool " + std::to_string(t.pool) +
              " but only " + std::to_string(num_pools) + " pools exist");
      continue;
    }
    alloc_total[static_cast<std::size_t>(t.pool)] += t.alloc_at_start;
    free_total[static_cast<std::size_t>(t.pool)] += t.free_at_end;
  }
  for (int p = 0; p < num_pools; ++p) {
    const sim::MemoryPool& pool = result.pools[static_cast<std::size_t>(p)];
    if (alloc_total[static_cast<std::size_t>(p)] != free_total[static_cast<std::size_t>(p)]) {
      add(kViolationMemoryUnbalanced,
          "pool " + std::to_string(p) + " allocates " +
              std::to_string(alloc_total[static_cast<std::size_t>(p)]) + " B but frees " +
              std::to_string(free_total[static_cast<std::size_t>(p)]) + " B");
    }
    if (pool.current() != pool.baseline()) {
      add(kViolationMemoryLeak, "pool " + std::to_string(p) + " ends at " +
                                    std::to_string(pool.current()) + " B, baseline is " +
                                    std::to_string(pool.baseline()) + " B");
    }
    if (pool.peak() < pool.baseline()) {
      add(kViolationMemoryLeak,
          "pool " + std::to_string(p) + " peak below its baseline");
    }
    const Bytes want_baseline =
        static_cast<std::size_t>(p) < built.engine_options.pool_baselines.size()
            ? built.engine_options.pool_baselines[static_cast<std::size_t>(p)]
            : 0;
    const Bytes want_capacity =
        static_cast<std::size_t>(p) < built.engine_options.pool_capacities.size()
            ? built.engine_options.pool_capacities[static_cast<std::size_t>(p)]
            : 0;
    if (pool.baseline() != want_baseline || pool.capacity() != want_capacity) {
      add(kViolationMemoryBaseline,
          "pool " + std::to_string(p) + " baseline/capacity differ from the engine options");
    }
    const bool should_oom = pool.capacity() != 0 && pool.peak() > pool.capacity();
    if (pool.oom() != should_oom) {
      add(kViolationOomFlag, "pool " + std::to_string(p) + " OOM flag is inconsistent");
    }
  }
  const bool any_oom = std::any_of(result.pools.begin(), result.pools.end(),
                                   [](const sim::MemoryPool& p) { return p.oom(); });
  if (result.AnyOom() != any_oom) {
    add(kViolationOomFlag, "SimResult::AnyOom disagrees with the per-pool flags");
  }

  // --- (e) collectives: AllReduce / apply / transfer shape -----------------
  ++report.checks_run;
  for (int i = 0; i < num_stages; ++i) {
    const planner::StagePlan& stage = exec_stage(i);
    const int r = stage.replication();
    const int per_micro = split ? r : 1;

    // FW/BW cardinality per micro-batch; 2BP additionally owes one weight
    // half per backward, every other kind owes none.
    const int want_bww = split_bw ? per_micro : 0;
    for (int m = 0; m < m_total; ++m) {
      const auto& fws = fw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      const auto& bws = bw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      if (static_cast<int>(fws.size()) != per_micro ||
          static_cast<int>(bws.size()) != per_micro) {
        add(kViolationTaskCount, "stage " + std::to_string(i) + " micro-batch " +
                                     std::to_string(m) + " has " +
                                     std::to_string(fws.size()) + " FW / " +
                                     std::to_string(bws.size()) + " BW tasks, expected " +
                                     std::to_string(per_micro) + " each");
      }
      const auto& bwws = bww[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
      if (static_cast<int>(bwws.size()) != want_bww) {
        add(kViolationTaskCount, "stage " + std::to_string(i) + " micro-batch " +
                                     std::to_string(m) + " has " +
                                     std::to_string(bwws.size()) +
                                     " BWW tasks, expected " + std::to_string(want_bww));
      }
    }

    // Gradient AllReduce: exactly one per replicated stage, none otherwise,
    // with every backward of the stage feeding it.
    const auto& ars = ar[static_cast<std::size_t>(i)];
    if (r > 1 && ars.empty()) {
      add(kViolationAllReduceMissing,
          "replicated stage " + std::to_string(i) + " (x" + std::to_string(r) +
              ") has no AllReduce task");
    } else if (static_cast<int>(ars.size()) > (r > 1 ? 1 : 0)) {
      add(kViolationAllReduceExtra, "stage " + std::to_string(i) + " has " +
                                        std::to_string(ars.size()) + " AllReduce tasks");
    }
    // The tasks producing this stage's weight gradients: the BWW halves
    // under 2BP, the full backwards otherwise. They gate AllReduce/APPLY.
    const auto& grads = split_bw ? bww : bw;
    if (r > 1 && ars.size() == 1) {
      for (int m = 0; m < m_total; ++m) {
        for (sim::TaskId t : grads[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
          if (!Feeds(graph, t, ars.front())) {
            add(kViolationAllReduceFanIn,
                TaskLabel(graph, t) + " does not feed stage " + std::to_string(i) +
                    "'s AllReduce");
          }
        }
      }
    }

    // Weight update: one apply per replica device, gated on the AllReduce
    // (or on the device's own backwards when the stage is not replicated).
    const auto& applies = apply[static_cast<std::size_t>(i)];
    if (static_cast<int>(applies.size()) != r) {
      add(kViolationApplyShape, "stage " + std::to_string(i) + " has " +
                                    std::to_string(applies.size()) +
                                    " apply tasks for replication " + std::to_string(r));
    } else {
      for (sim::TaskId a : applies) {
        const sim::Task& t = graph.task(a);
        if (!stage.devices.contains(t.device)) {
          add(kViolationApplyShape,
              TaskLabel(graph, a) + " applies on a device outside the stage");
          continue;
        }
        if (r > 1) {
          if (ars.size() == 1 && !Feeds(graph, ars.front(), a)) {
            add(kViolationApplyShape,
                TaskLabel(graph, a) + " is not gated on the stage's AllReduce");
          }
        } else {
          for (int m = 0; m < m_total; ++m) {
            for (sim::TaskId b :
                 grads[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)]) {
              if (graph.task(b).device == t.device && !Feeds(graph, b, a)) {
                add(kViolationApplyShape,
                    TaskLabel(graph, a) + " is not gated on " + TaskLabel(graph, b));
              }
            }
          }
        }
      }
    }
  }

  // Cross-stage transfers: one per direction per (boundary, micro-batch),
  // with split/concat fan-in from every producing replica and fan-out to
  // every consuming replica (paper Fig. 9 / Fig. 11).
  const runtime::ResourceLayout layout = built.layout();
  for (int i = 0; i + 1 < num_stages; ++i) {
    const sim::ResourceId fwd_channel = layout.ForwardChannel(i);
    const sim::ResourceId bwd_channel = layout.BackwardChannel(i);
    std::vector<std::vector<sim::TaskId>> txf(static_cast<std::size_t>(m_total)),
        txb(static_cast<std::size_t>(m_total));
    for (const sim::Task& t : graph.tasks()) {
      if (t.kind != sim::TaskKind::kTransfer) continue;
      if (t.microbatch < 0 || t.microbatch >= m_total) continue;
      if (t.resource == fwd_channel) {
        txf[static_cast<std::size_t>(t.microbatch)].push_back(t.id);
      } else if (t.resource == bwd_channel) {
        txb[static_cast<std::size_t>(t.microbatch)].push_back(t.id);
      }
    }
    auto check_link = [&](const std::vector<sim::TaskId>& links, int m,
                          const std::vector<sim::TaskId>& producers,
                          const std::vector<sim::TaskId>& consumers, const char* dir) {
      if (links.size() != 1) {
        add(kViolationTransferShape,
            "boundary " + std::to_string(i) + " micro-batch " + std::to_string(m) +
                " has " + std::to_string(links.size()) + " " + dir + " transfers");
        return;
      }
      const sim::TaskId link = links.front();
      for (sim::TaskId p : producers) {
        if (!Feeds(graph, p, link)) {
          add(kViolationTransferShape,
              TaskLabel(graph, p) + " does not feed the " + dir + " transfer at boundary " +
                  std::to_string(i));
        }
      }
      for (sim::TaskId c : consumers) {
        if (!Feeds(graph, link, c)) {
          add(kViolationTransferShape,
              TaskLabel(graph, c) + " is not gated on the " + dir +
                  " transfer at boundary " + std::to_string(i));
        }
      }
    };
    for (int m = 0; m < m_total; ++m) {
      check_link(txf[static_cast<std::size_t>(m)], m,
                 fw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)],
                 fw[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(m)], "forward");
      check_link(txb[static_cast<std::size_t>(m)], m,
                 bw[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(m)],
                 bw[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)], "backward");
    }
  }

  return report;
}

}  // namespace dapple::check
