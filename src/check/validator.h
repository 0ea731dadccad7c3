// Machine-checkable schedule invariants (paper §III, §V-C). Every
// evaluation claim the paper makes is a claim about schedule *shape*:
// 1F1B interleave order, warmup depths K_i, early activation release, one
// gradient AllReduce per replicated stage. The ScheduleValidator verifies a
// simulated iteration against the full invariant set, independently of the
// code that produced it, so a regression in runtime/schedule.cc or
// sim/engine.cc cannot silently corrupt the bench tables:
//
//   (a) resource exclusivity and dependency order — no two tasks overlap
//       on one serial resource; every successor starts after all of its
//       predecessors end;
//   (b) per-device compute total order equals the schedule exactly — one
//       check over device groups (NumGroups: a stage for the linear
//       families, a folded chunk pair for V-Min and V-Half): each device
//       runs the FW/BW/BWW tasks of every chunk its group hosts in the
//       group's order of runtime::ScheduleStep, matched on chunk,
//       direction, weight half and micro-batch. The orders come from one
//       runtime::BuildSchedule call at the pipeline's reported depths
//       (GPipe's LIFO backward, 2BP's deferred weight halves, the V
//       shapes' merged two-chunk orders);
//   (c) the in-flight activation count at stage i (forwards started minus
//       releases completed, per device) never exceeds the stage's warmup
//       depth K_i (K_i + 1 under 2BP, whose weight half frees one forward
//       later);
//   (d) memory accounting conserves — per-pool allocations equal releases,
//       pools end at their baseline, and baselines/capacities/OOM flags
//       match the engine options;
//   (e) collectives appear once per stage per step: one AllReduce with
//       full backward fan-in per replicated stage, one apply per replica
//       device, one transfer per direction per (boundary, micro-batch).
//
// Violations are reported with stable string codes so tests can assert on
// the *kind* of corruption detected, not on message wording.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "planner/plan.h"
#include "runtime/graph_builder.h"
#include "sim/engine.h"

namespace dapple::check {

/// One detected invariant violation. `code` is a stable identifier (see
/// the kViolation* constants); `message` carries human-readable detail.
struct Violation {
  std::string code;
  std::string message;

  bool operator==(const Violation&) const = default;
};

// Stable violation codes, grouped by invariant family.
inline constexpr std::string_view kViolationNotExecuted = "task-not-executed";
inline constexpr std::string_view kViolationMakespan = "makespan-mismatch";
inline constexpr std::string_view kViolationResourceOverlap = "resource-overlap";
inline constexpr std::string_view kViolationDependencyOrder = "dependency-order";
inline constexpr std::string_view kViolationScheduleOrder = "schedule-order";
inline constexpr std::string_view kViolationWarmupShape = "warmup-depth-shape";
inline constexpr std::string_view kViolationWarmupExceeded = "warmup-exceeded";
inline constexpr std::string_view kViolationMemoryLeak = "memory-leak";
inline constexpr std::string_view kViolationMemoryUnbalanced = "memory-unbalanced";
inline constexpr std::string_view kViolationMemoryBaseline = "memory-baseline";
inline constexpr std::string_view kViolationOomFlag = "memory-oom-flag";
inline constexpr std::string_view kViolationAllReduceMissing = "allreduce-missing";
inline constexpr std::string_view kViolationAllReduceExtra = "allreduce-extra";
inline constexpr std::string_view kViolationAllReduceFanIn = "allreduce-fanin";
inline constexpr std::string_view kViolationApplyShape = "apply-shape";
inline constexpr std::string_view kViolationTransferShape = "transfer-shape";
inline constexpr std::string_view kViolationTaskCount = "task-count";

struct ValidationReport {
  std::vector<Violation> violations;
  /// Number of invariant families evaluated (for "did it actually check
  /// anything" assertions in tests).
  int checks_run = 0;

  bool ok() const { return violations.empty(); }
  bool Has(std::string_view code) const;
  /// Multi-line human-readable summary ("OK" when clean).
  std::string ToString() const;

  bool operator==(const ValidationReport&) const = default;
};

/// Validates simulated iterations of one (plan, build options) pair. The
/// validator re-derives every expectation from the plan and options alone —
/// it shares no schedule-construction code with the graph builder beyond
/// runtime::BuildSchedule itself, which is exactly the contract under test.
class ScheduleValidator {
 public:
  ScheduleValidator(const planner::ParallelPlan& plan, runtime::BuildOptions options);

  /// Runs the full invariant set against one built pipeline and its
  /// simulation result.
  ValidationReport Validate(const runtime::BuiltPipeline& built,
                            const sim::SimResult& result) const;

 private:
  const planner::ParallelPlan* plan_;
  runtime::BuildOptions options_;
};

}  // namespace dapple::check
