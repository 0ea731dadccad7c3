#include "scenario/coscheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "planner/fingerprint.h"
#include "sim/engine.h"

namespace dapple::scenario {

namespace {

constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();

/// Upper bound on exchange-improvement passes (each pass scans every
/// ordered job pair; the loop usually reaches its fixed point earlier).
constexpr int kExchangeRounds = 8;

/// The options one job is planned, and (via BuildOptionsFor) built, under.
planner::PlannerOptions JobPlannerOptions(const CoScheduleOptions& options,
                                          const JobSpec& spec) {
  planner::PlannerOptions po = options.planner;
  po.global_batch_size = spec.global_batch_size;
  return po;
}

/// One evaluated (job, slice width) point: the plan the DAPPLE planner
/// chose on that many servers and its simulated iteration time. infeasible
/// (planner threw) keeps iteration_time at +inf so it loses every
/// comparison without special-casing.
struct Cell {
  planner::ParallelPlan plan;
  TimeSec iteration_time = kInf;
  bool feasible = false;
};

/// Memoized candidate evaluation for one CoSchedule call. Keys are
/// planner::FingerprintPlanRequest digests of (job model, budget slice,
/// batch, planner options), so the memo is shared across greedy steps and
/// exchange passes. Only the scheduling thread touches it: the pool
/// computes a round's missing cells, the caller inserts them. Hit/miss
/// counts are per deduped evaluation round, which keeps them (and the
/// report bytes) independent of worker count.
class Evaluator {
 public:
  Evaluator(const topo::Cluster& budget, const CoScheduleOptions& options,
            const std::vector<JobSpec>& jobs)
      : budget_(budget),
        options_(options),
        jobs_(jobs),
        pool_(static_cast<std::size_t>(options.sim_threads)) {}

  /// Ensures every (job, width) in `wanted` is cached; computes the missing
  /// ones concurrently.
  void Prepare(const std::vector<std::pair<int, int>>& wanted) {
    std::vector<std::pair<std::uint64_t, std::pair<int, int>>> missing;
    for (const auto& [job, width] : wanted) {
      const std::uint64_t key = KeyOf(job, width);
      if (cells_.contains(key)) {
        ++hits_;
        continue;
      }
      // Dedupe within the round: the first request computes, the rest hit.
      const bool queued = std::any_of(missing.begin(), missing.end(),
                                      [&](const auto& m) { return m.first == key; });
      if (queued) {
        ++hits_;
        continue;
      }
      ++misses_;
      missing.emplace_back(key, std::make_pair(job, width));
    }
    if (missing.empty()) return;
    std::vector<Cell> computed = pool_.Map<Cell>(missing.size(), [&](std::size_t i) {
      const auto& [job, width] = missing[i].second;
      return Compute(job, width);
    });
    for (std::size_t i = 0; i < missing.size(); ++i) {
      cells_.emplace(missing[i].first, std::move(computed[i]));
    }
  }

  /// The cell for (job, width), which an earlier Prepare must have cached;
  /// the reference survives later insertions.
  const Cell& At(int job, int width) const {
    const auto it = cells_.find(KeyOf(job, width));
    DAPPLE_CHECK(it != cells_.end()) << "job " << job << " at width " << width
                                     << " was read before it was prepared";
    return it->second;
  }

  topo::Cluster Slice(int width) const { return budget_.WithServers(width); }

  long hits() const { return hits_; }
  long misses() const { return misses_; }

 private:
  std::uint64_t KeyOf(int job, int width) const {
    const JobSpec& spec = jobs_[static_cast<std::size_t>(job)];
    return planner::FingerprintPlanRequest(spec.model, Slice(width), spec.global_batch_size,
                                           JobPlannerOptions(options_, spec));
  }

  Cell Compute(int job, int width) const {
    const JobSpec& spec = jobs_[static_cast<std::size_t>(job)];
    const topo::Cluster slice = Slice(width);
    Cell cell;
    const planner::PlannerOptions po = JobPlannerOptions(options_, spec);
    try {
      cell.plan = planner::DapplePlanner(spec.model, slice, po).Plan().plan;
    } catch (const planner::NoFeasiblePlan&) {
      return cell;  // infeasible on this slice; +inf loses every comparison
    }
    const runtime::BuiltPipeline built =
        runtime::GraphBuilder(spec.model, slice, cell.plan, runtime::BuildOptionsFor(po))
            .Build();
    const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
    cell.iteration_time = result.makespan;
    cell.feasible = true;
    return cell;
  }

  const topo::Cluster& budget_;
  const CoScheduleOptions& options_;
  const std::vector<JobSpec>& jobs_;
  ThreadPool pool_;
  std::unordered_map<std::uint64_t, Cell> cells_;
  long hits_ = 0;
  long misses_ = 0;
};

}  // namespace

CoScheduleReport CoSchedule(const topo::Cluster& budget, const std::vector<JobSpec>& jobs,
                            const CoScheduleOptions& options) {
  // Cells price a width on the budget's first servers, while a job runs on
  // its own contiguous range: only interchangeable servers make the two
  // the same.
  DAPPLE_CHECK(budget.homogeneous())
      << "co-scheduling needs interchangeable servers; budget " << budget.name()
      << " has per-server speeds";
  const int num_jobs = static_cast<int>(jobs.size());
  const int total_servers = budget.num_servers();
  DAPPLE_CHECK_GT(num_jobs, 0) << "co-scheduling zero jobs";
  DAPPLE_CHECK(total_servers >= num_jobs)
      << "budget " << budget.name() << " has " << total_servers << " servers for "
      << num_jobs << " jobs";
  for (const JobSpec& job : jobs) {
    DAPPLE_CHECK_GT(job.iterations, 0) << "job " << job.name << " runs no iterations";
    DAPPLE_CHECK_GT(job.global_batch_size, 0) << "job " << job.name << " has no batch";
  }

  Evaluator eval(budget, options, jobs);
  CoScheduleReport report;

  auto makespan = [&](int job, int width) {
    const Cell& cell = eval.At(job, width);
    return cell.feasible
               ? static_cast<double>(jobs[static_cast<std::size_t>(job)].iterations) *
                     cell.iteration_time
               : kInf;
  };
  auto aggregate = [&](const std::vector<int>& widths) {
    TimeSec worst = 0.0;
    for (int j = 0; j < num_jobs; ++j) worst = std::max(worst, makespan(j, widths[static_cast<std::size_t>(j)]));
    return worst;
  };

  // --- Naive even baseline: floor(S/N) each, remainder round-robin. ---
  std::vector<int> even(static_cast<std::size_t>(num_jobs), total_servers / num_jobs);
  for (int r = 0; r < total_servers % num_jobs; ++r) ++even[static_cast<std::size_t>(r)];
  {
    std::vector<std::pair<int, int>> wanted;
    for (int j = 0; j < num_jobs; ++j) wanted.emplace_back(j, even[static_cast<std::size_t>(j)]);
    eval.Prepare(wanted);
  }
  report.naive_even_makespan = aggregate(even);

  // --- Greedy: one server each, then each remaining server to whichever
  // job shrinks the aggregate the most (ties: lowest job index). ---
  std::vector<int> widths(static_cast<std::size_t>(num_jobs), 1);
  for (int step = num_jobs; step < total_servers; ++step) {
    std::vector<std::pair<int, int>> wanted;
    for (int j = 0; j < num_jobs; ++j) {
      wanted.emplace_back(j, widths[static_cast<std::size_t>(j)]);
      wanted.emplace_back(j, widths[static_cast<std::size_t>(j)] + 1);
    }
    eval.Prepare(wanted);
    int best_job = 0;
    TimeSec best_aggregate = kInf;
    for (int j = 0; j < num_jobs; ++j) {
      ++widths[static_cast<std::size_t>(j)];
      const TimeSec candidate = aggregate(widths);
      --widths[static_cast<std::size_t>(j)];
      if (candidate < best_aggregate) {
        best_aggregate = candidate;
        best_job = j;
      }
    }
    ++widths[static_cast<std::size_t>(best_job)];
    ++report.greedy_steps;
  }

  // Greedy can wander on non-convex makespan curves; never do worse than
  // the even split — start the exchange phase from whichever is better.
  if (aggregate(even) < aggregate(widths)) widths = even;

  // --- Exchange improvement: move one server donor -> receiver while it
  // strictly shrinks the aggregate, to a fixed point (bounded rounds). ---
  for (int round = 0; round < kExchangeRounds; ++round) {
    std::vector<std::pair<int, int>> wanted;
    for (int j = 0; j < num_jobs; ++j) {
      const int w = widths[static_cast<std::size_t>(j)];
      if (w > 1) wanted.emplace_back(j, w - 1);
      if (w < total_servers) wanted.emplace_back(j, w + 1);
    }
    eval.Prepare(wanted);

    bool moved = false;
    TimeSec current = aggregate(widths);
    for (int donor = 0; donor < num_jobs && !moved; ++donor) {
      if (widths[static_cast<std::size_t>(donor)] <= 1) continue;
      for (int receiver = 0; receiver < num_jobs && !moved; ++receiver) {
        if (receiver == donor) continue;
        --widths[static_cast<std::size_t>(donor)];
        ++widths[static_cast<std::size_t>(receiver)];
        const TimeSec candidate = aggregate(widths);
        if (candidate < current) {
          moved = true;
          ++report.exchange_moves;
          ++report.preemptions;  // the donor's devices get preempted
        } else {
          ++widths[static_cast<std::size_t>(donor)];
          --widths[static_cast<std::size_t>(receiver)];
        }
      }
    }
    if (!moved) break;
  }

  // --- Final assignment: contiguous disjoint server ranges in job order. ---
  report.aggregate_makespan = aggregate(widths);
  if (!std::isfinite(report.aggregate_makespan)) {
    throw Error("no feasible co-schedule: some job fits no slice of " + budget.name());
  }
  int next_server = 0;
  double busy_device_time = 0.0;
  for (int j = 0; j < num_jobs; ++j) {
    const int w = widths[static_cast<std::size_t>(j)];
    const Cell& cell = eval.At(j, w);
    JobAssignment a;
    a.name = jobs[static_cast<std::size_t>(j)].name;
    a.server_begin = next_server;
    a.servers = w;
    a.plan = cell.plan;
    a.iteration_time = cell.iteration_time;
    a.makespan =
        static_cast<double>(jobs[static_cast<std::size_t>(j)].iterations) * cell.iteration_time;
    next_server += w;
    busy_device_time += a.makespan * w * budget.gpus_per_server();
    if (options.pipeline_observer) {
      const JobSpec& spec = jobs[static_cast<std::size_t>(j)];
      const topo::Cluster slice = eval.Slice(w);
      const runtime::BuiltPipeline built =
          runtime::GraphBuilder(spec.model, slice, a.plan,
                                runtime::BuildOptionsFor(JobPlannerOptions(options, spec)))
              .Build();
      options.pipeline_observer(built, a.plan, slice);
    }
    report.jobs.push_back(std::move(a));
  }
  report.cache_hits = eval.hits();
  report.cache_misses = eval.misses();
  report.utilization =
      report.aggregate_makespan > 0.0
          ? busy_device_time / (budget.num_devices() * report.aggregate_makespan)
          : 0.0;
  return report;
}

}  // namespace dapple::scenario
