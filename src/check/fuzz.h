// Seeded randomized differential-testing harness. Generates random
// (model, cluster, plan, schedule) configurations, runs the full
// planner → graph_builder → engine stack, and pins the three layers against
// each other:
//
//   - the ScheduleValidator's invariant set must pass on every valid
//     configuration;
//   - the analytic latency (planner/latency.cc) must bracket the simulated
//     makespan within the stated tolerances;
//   - the DAPPLE schedule's peak activation memory must not change when the
//     micro-batch count doubles (the paper's O(K)-not-O(M) claim, §III).
//
// Every fuzz mode — schedule, fault, memory-cap, ranking (here) and
// scenario (scenario/fuzz.h) — has the same shape:
//
//   struct SomeFuzz {
//     using Case = ...;     // Describe(): one line for logs and failures
//     using Outcome = ...;  // ok(), Summary() (failure text, empty when
//                           // ok), Detail() (one-line success report)
//     static Case Make(std::uint64_t seed);
//     static Outcome Run(const Case& c);
//     struct Tally {        // sweep-wide counters, accumulated in seed order
//       void Add(const Outcome& out);
//       std::string ToString(std::uint64_t base) const;
//     };
//   };
//
// and RunSweep<SomeFuzz> drives it. Every mode draws from its own salted
// stream, so everything derives from one 64-bit seed and any failure
// reproduces from the seed printed in its summary (`dapple_fuzz --repro
// SEED`, or DAPPLE_FUZZ_SEED for the gtest harness).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/validator.h"
#include "common/thread_pool.h"
#include "fault/recovery.h"
#include "fault/script.h"
#include "model/profile.h"
#include "planner/dp_planner.h"
#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "topo/cluster.h"

namespace dapple::check {

/// Analytic latency may exceed the simulated makespan by at most 10% on
/// single-stage (pure DP) plans, where the estimator ignores only launch
/// overheads and bubbles. Multi-stage plans add cross-stage transfers and
/// are held to the looser sim::kAnalyticOverSim; every plan of the checked
/// family is held to sim::kSimOverAnalytic (sim/prefilter.h).
inline constexpr double kAnalyticOverSimTolerance = 1.10;

/// `count` consecutive seeds starting at `base`.
std::vector<std::uint64_t> SeedRange(std::uint64_t base, long count);

/// Runs Mode on every seed on a ThreadPool of `threads` workers (1 =
/// inline serial, 0 = hardware concurrency). Outcome i corresponds to
/// seeds[i] and equals Mode::Run(Mode::Make(seeds[i])) at every thread
/// count — each case derives all its state from its seed.
template <class Mode>
std::vector<typename Mode::Outcome> RunSweep(const std::vector<std::uint64_t>& seeds,
                                             int threads = 1) {
  ThreadPool pool(static_cast<std::size_t>(threads));
  return pool.Map<typename Mode::Outcome>(
      seeds.size(), [&](std::size_t i) { return Mode::Run(Mode::Make(seeds[i])); });
}

/// One generated configuration. Aggregate-constructed by MakeFuzzCase.
struct FuzzCase {
  std::uint64_t seed;
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
  runtime::BuildOptions options;

  /// One-line description for failure messages and verbose logs.
  std::string Describe() const;
};

/// Deterministically derives a configuration from a seed. Covers every
/// schedule kind (uniformly, from a salted side-stream so the kind draw
/// never shifts the model/cluster/plan stream), both warmup policies,
/// warmup overrides, re-computation, both replication modes, homogeneous
/// and straggler clusters, random plans and (on a subset of seeds)
/// planner-produced plans.
FuzzCase MakeFuzzCase(std::uint64_t seed);

/// Everything observed while running one case.
struct FuzzOutcome {
  std::uint64_t seed = 0;
  /// The case's schedule kind, so sweeps can report per-kind coverage.
  runtime::ScheduleKind kind = runtime::ScheduleKind::kDapple;
  ValidationReport report;

  int num_tasks = 0;
  /// Stage count of the case's plan (tolerance brackets differ by family).
  int num_stages = 0;
  TimeSec simulated_makespan = 0.0;

  /// Analytic-vs-simulated bracket (checked for split-mode DAPPLE cases
  /// without a warmup override — the estimator models exactly that family).
  bool checked_latency = false;
  bool latency_bracketed = true;
  TimeSec analytic_latency = 0.0;

  /// Peak-memory-independence differential (checked for DAPPLE cases whose
  /// warmup depths are not clamped by M itself).
  bool checked_peak = false;
  bool peak_independent = true;
  Bytes peak_at_m = 0;
  Bytes peak_at_2m = 0;

  bool ok() const { return report.ok() && latency_bracketed && peak_independent; }
  /// Failure summary including the seed; empty when ok().
  std::string Summary() const;
  std::string Detail() const;
  bool operator==(const FuzzOutcome&) const = default;
};

/// The schedule mode: build → simulate → validate → differentials.
struct ScheduleFuzz {
  using Case = FuzzCase;
  using Outcome = FuzzOutcome;
  static Case Make(std::uint64_t seed) { return MakeFuzzCase(seed); }
  static Outcome Run(const Case& c);

  /// Coverage counters plus the calibration extremes: the worst observed
  /// analytic/sim ratio per plan family (the tolerances above are pinned
  /// from sweeps of this tally) and the worst sim/analytic ratio.
  struct Tally {
    long cases = 0;
    long latency_checked = 0;
    long peak_checked = 0;
    /// Cases per runtime::AllScheduleKinds() entry, so a sweep cannot
    /// silently skip a family.
    std::vector<long> kind_counts = std::vector<long>(runtime::AllScheduleKinds().size());
    double max_over_single = 0.0;
    double max_over_multi = 0.0;
    double max_under = 0.0;
    std::uint64_t worst_multi_seed = 0;

    void Add(const Outcome& out);
    std::string ToString(std::uint64_t base) const;
  };
};

/// One generated fault-recovery configuration: a schedule-fuzz style
/// (model, cluster, plan) plus a seeded random fault script and a recovery
/// policy (cycled by seed). Aggregate-constructed by FaultFuzz::Make.
struct FaultFuzzCase {
  std::uint64_t seed;
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
  fault::FaultScript script;
  fault::RecoveryPolicy policy;
  fault::FaultOptions options;

  std::string Describe() const;
};

/// Everything observed while running one fault case. Every pipeline the
/// experiment builds — initial, checkpoint-remapped, elastically replanned —
/// is executed fault-free and pushed through the full ScheduleValidator
/// invariant set; the experiment's own report is sanity-checked on top.
struct FaultFuzzOutcome {
  std::uint64_t seed = 0;
  /// Merged violations across every validated pipeline, each prefixed with
  /// the plan it came from.
  ValidationReport report;
  int pipelines_validated = 0;
  int iterations_completed = 0;
  int replans = 0;
  int restores = 0;

  bool ok() const { return report.ok(); }
  std::string Summary() const;
  std::string Detail() const;
  bool operator==(const FaultFuzzOutcome&) const = default;
};

/// The fault-recovery mode.
struct FaultFuzz {
  using Case = FaultFuzzCase;
  using Outcome = FaultFuzzOutcome;
  static Case Make(std::uint64_t seed);
  static Outcome Run(const Case& c);

  struct Tally {
    long cases = 0;
    long pipelines = 0;
    long replans = 0;
    long restores = 0;

    void Add(const Outcome& out);
    std::string ToString(std::uint64_t base) const;
  };
};

/// The checks the fault and scenario modes share. Violation codes start
/// with `prefix` ("fault", "scenario").
///
/// ValidatingObserver returns a pipeline_observer that simulates every
/// pipeline it sees fault-free and merges into `report` the validator's
/// findings (each prefixed with the plan it came from) and any OOM task;
/// `validated` counts the pipelines.
decltype(fault::FaultOptions::pipeline_observer) ValidatingObserver(std::string prefix,
                                                                   ValidationReport* report,
                                                                   int* validated);
/// Sanity of an experiment's own report: non-negative progress, a timeline
/// that never runs backwards or overlaps, a non-negative recovery time.
void CheckFaultReport(const fault::FaultReport& r, const std::string& prefix,
                      ValidationReport* report);

/// One generated memory-cap planning configuration: a random model on a
/// small cluster, a schedule family, a recompute policy, and a per-device
/// cap drawn as a factor (0.25–1.3) of the family's uncapped peak, so the
/// draws land on both sides of feasibility. Aggregate-constructed by
/// MemoryCapFuzz::Make.
struct MemoryCapFuzzCase {
  std::uint64_t seed;
  model::ModelProfile model;
  topo::Cluster cluster;
  runtime::ScheduleKind kind = runtime::ScheduleKind::kDapple;
  long global_batch_size = 0;
  Bytes memory_cap = 0;
  planner::RecomputePolicy recompute = planner::RecomputePolicy::kAuto;

  /// One-line description for failure messages and verbose logs.
  std::string Describe() const;
};

/// The OOM-free guarantee, observed on one case: the planner either throws
/// (declares the cap infeasible — allowed) or produces a plan whose
/// analytic peak fits the cap AND whose capped simulated execution passes
/// the full validator with zero OOM violations.
struct MemoryCapFuzzOutcome {
  std::uint64_t seed = 0;
  runtime::ScheduleKind kind = runtime::ScheduleKind::kDapple;
  ValidationReport report;

  /// False when the planner threw; `infeasible_reason` then carries the
  /// message. An infeasible declaration is a success, never a violation.
  bool planned = false;
  std::string infeasible_reason;

  Bytes memory_cap = 0;
  Bytes analytic_peak = 0;
  Bytes simulated_peak = 0;
  /// Stages the planner turned recompute on for (per-stage flags, or all
  /// of them under RecomputePolicy::kAll).
  int recompute_stages = 0;

  bool ok() const { return report.ok(); }
  /// Failure summary including the seed; empty when ok().
  std::string Summary() const;
  std::string Detail() const;
  bool operator==(const MemoryCapFuzzOutcome&) const = default;
};

/// The memory-cap mode: plan → build capped → simulate → validate.
struct MemoryCapFuzz {
  using Case = MemoryCapFuzzCase;
  using Outcome = MemoryCapFuzzOutcome;
  /// Own salted side-stream, so the schedule/fault fuzz streams (and their
  /// pinned regression seeds) stay bit-identical.
  static Case Make(std::uint64_t seed);
  static Outcome Run(const Case& c);

  struct Tally {
    long cases = 0;
    long planned = 0;
    long infeasible = 0;
    long with_recompute = 0;
    /// Cases per runtime::AllScheduleKinds() entry.
    std::vector<long> kind_counts = std::vector<long>(runtime::AllScheduleKinds().size());

    void Add(const Outcome& out);
    std::string ToString(std::uint64_t base) const;
  };
};

/// One candidate-ranking configuration: a fixed (model, cluster, global
/// batch) plus `num_candidates` random plans, all built as split-mode
/// DAPPLE schedules without a warmup override — exactly the family whose
/// analytic/sim brackets (the tolerances above) are pinned by the fuzz
/// harness, so the prefilter's band guarantee applies to every candidate.
/// Aggregate-constructed by RankingFuzz::Make on its own salted side-stream
/// (pinned seeds of the other streams never shift).
struct RankingFuzzCase {
  std::uint64_t seed;
  model::ModelProfile model;
  topo::Cluster cluster;
  std::vector<planner::ParallelPlan> candidates;
  runtime::BuildOptions options;

  std::string Describe() const;
};

/// The prefilter recall property, observed on one case: ranking the
/// candidates with the analytic pre-filter on must land on a candidate
/// whose simulated makespan equals (bit-exactly) the best makespan over
/// every feasible candidate simulated in full.
struct RankingFuzzOutcome {
  std::uint64_t seed = 0;
  int num_candidates = 0;
  /// Candidates the prefiltered leg actually simulated (<= num_candidates).
  int num_simulated = 0;
  int best_prefiltered = -1;
  int best_full = -1;
  TimeSec best_prefiltered_makespan = 0.0;
  TimeSec best_full_makespan = 0.0;
  /// Rank-1 recall: the prefiltered winner's makespan equals the full-sweep
  /// winner's (index may differ only between exact ties).
  bool recall_ok = true;

  bool ok() const { return recall_ok; }
  /// Failure summary including the seed; empty when ok().
  std::string Summary() const;
  std::string Detail() const;
  bool operator==(const RankingFuzzOutcome&) const = default;
};

/// The candidate-ranking mode.
struct RankingFuzz {
  using Case = RankingFuzzCase;
  using Outcome = RankingFuzzOutcome;
  static Case Make(std::uint64_t seed, int num_candidates = 24);
  /// Scores the candidates once with the analytic estimator, ranks them
  /// twice through sim::PrefilterBatch — prefilter on, then the
  /// full-simulation oracle — and compares the winners. Each leg simulates
  /// serially inside the case, so sweep parallelism stays at the case
  /// granularity.
  static Outcome Run(const Case& c);

  struct Tally {
    long cases = 0;
    long candidates = 0;
    long simulated = 0;

    void Add(const Outcome& out);
    std::string ToString(std::uint64_t base) const;
  };
};

}  // namespace dapple::check
