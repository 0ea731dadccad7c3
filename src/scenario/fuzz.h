// Seeded randomized testing for the scenario layer: long-horizon churn
// episodes fuzzed across (churn model x recovery policy x schedule family).
//
// Each case reuses the fault-fuzz topology stream — check::FaultFuzz::Make's
// (model, cluster, plan, schedule family, cost knobs) — then swaps in a
// seeded churn stream and a policy drawn uniformly from scenario-salted
// side-streams, so adding this mode shifted none of the pinned schedule/
// fault/memory-cap fuzz seeds. Every pipeline the episode builds
// (initial, remapped, replanned, scale-up) is executed fault-free and must
// pass the full ScheduleValidator invariant set with zero OOM tasks; the
// generated script must survive a Parse/ToString round trip; elastic-up
// rollbacks must stay checkpoint-bounded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "scenario/episode.h"

namespace dapple::scenario {

/// One generated episode configuration. Aggregate-constructed by
/// ScenarioFuzz::Make.
struct ScenarioFuzzCase {
  std::uint64_t seed;
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
  ChurnModel churn;
  ChurnOptions churn_options;
  fault::RecoveryPolicy policy;
  /// Cost knobs and schedule family (from the fault-fuzz stream); the
  /// horizon is overridden to the churn horizon.
  fault::FaultOptions options;

  /// One-line description for failure messages and verbose logs.
  std::string Describe() const;
};

/// Everything observed while running one case.
struct ScenarioFuzzOutcome {
  std::uint64_t seed = 0;
  ChurnModel churn = ChurnModel::kSpotChurn;
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kSyncStall;
  /// Merged violations: validator findings (prefixed with the plan they came
  /// from), OOM tasks, round-trip mismatches, report sanity failures.
  check::ValidationReport report;
  int pipelines_validated = 0;
  int iterations_completed = 0;
  int preemptions = 0;
  int rejoins = 0;
  int scale_ups = 0;

  bool ok() const { return report.ok(); }
  /// Failure summary including the seed; empty when ok().
  std::string Summary() const;
  std::string Detail() const;
  bool operator==(const ScenarioFuzzOutcome&) const = default;
};

/// The scenario mode, in the check/fuzz.h shape.
struct ScenarioFuzz {
  using Case = ScenarioFuzzCase;
  using Outcome = ScenarioFuzzOutcome;
  /// Deterministically derives an episode case from a seed, on its own
  /// salted side-streams (churn knobs on one, the churn-model/policy draw
  /// on another, the script itself on the generator's stream).
  static Case Make(std::uint64_t seed);
  /// Script round trip -> episode -> per-pipeline validation -> report
  /// sanity.
  static Outcome Run(const Case& c);

  struct Tally {
    long cases = 0;
    long pipelines = 0;
    long preemptions = 0;
    long rejoins = 0;
    long scale_ups = 0;
    /// Per churn model and per fault::AllRecoveryPolicies() entry, so a
    /// sweep cannot silently skip one.
    long spot = 0;
    long rolling = 0;
    std::vector<long> policy_counts = std::vector<long>(fault::AllRecoveryPolicies().size());

    void Add(const Outcome& out);
    std::string ToString(std::uint64_t base) const;
  };
};

}  // namespace dapple::scenario
