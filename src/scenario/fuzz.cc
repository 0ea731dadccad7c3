#include "scenario/fuzz.h"

#include <sstream>
#include <utility>

#include "common/rng.h"

namespace dapple::scenario {

namespace {

/// Salts for the scenario fuzz side-streams. Unique among the repository's
/// stream salts (see check/fuzz.cc and scenario/stream.cc), so scenario
/// sweeps share seed ranges with every other fuzz mode without correlating.
constexpr std::uint64_t kScenarioStreamSalt = 0xa54ff53a5f1d36f1ull;
constexpr std::uint64_t kScenarioKindSalt = 0x3c6ef372fe94f82bull;

}  // namespace

std::string ScenarioFuzzCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " model=" << model.num_layers() << "L cluster=" << cluster.name()
     << "(" << cluster.num_devices() << ") plan=" << plan.ToString()
     << " churn=" << ToString(churn) << " policy=" << fault::ToString(policy)
     << " horizon=" << churn_options.horizon
     << " schedule=" << runtime::ToString(options.build.schedule.kind);
  return os.str();
}

ScenarioFuzzCase ScenarioFuzz::Make(std::uint64_t seed) {
  // The topology, plan, schedule family and cost knobs come from the fault
  // fuzz stream; its script and policy are discarded and redrawn below from
  // scenario-salted streams (the fault-fuzz pins never shift, and neither
  // do these when the fault stream grows new draws).
  check::FaultFuzzCase base = check::FaultFuzz::Make(seed);

  ScenarioFuzzCase c{seed,
                     std::move(base.model),
                     std::move(base.cluster),
                     std::move(base.plan),
                     ChurnModel::kSpotChurn,
                     ChurnOptions{},
                     fault::RecoveryPolicy::kSyncStall,
                     std::move(base.options)};

  Rng rng(seed * 0x9e3779b97f4a7c15ull + kScenarioStreamSalt);
  c.churn_options.horizon = rng.Uniform(5.0, 25.0);
  c.churn_options.preempt_rate = rng.Uniform(0.02, 0.3);
  c.churn_options.min_outage = rng.Uniform(0.5, 2.0);
  c.churn_options.max_outage = c.churn_options.min_outage + rng.Uniform(0.5, 5.0);
  c.churn_options.rejoin_probability = rng.Uniform(0.3, 1.0);
  c.churn_options.maintenance_period = rng.Uniform(2.0, 8.0);
  c.churn_options.drain_duration = rng.Uniform(0.5, 3.0);
  c.churn_options.slowdown_probability = rng.Bernoulli(0.3) ? rng.Uniform(0.1, 0.5) : 0.0;

  Rng kind_rng(seed * 0x9e3779b97f4a7c15ull + kScenarioKindSalt);
  c.churn = kind_rng.Bernoulli(0.5) ? ChurnModel::kSpotChurn
                                    : ChurnModel::kRollingMaintenance;
  const std::vector<fault::RecoveryPolicy> policies = fault::AllRecoveryPolicies();
  c.policy = policies[static_cast<std::size_t>(
      kind_rng.UniformInt(0, static_cast<std::int64_t>(policies.size()) - 1))];

  c.options.horizon = c.churn_options.horizon;
  return c;
}

std::string ScenarioFuzzOutcome::Summary() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "scenario fuzz case failed (reproduce with seed " << seed << "):\n"
     << report.ToString();
  return os.str();
}

std::string ScenarioFuzzOutcome::Detail() const {
  std::ostringstream os;
  os << "ok: " << pipelines_validated << " pipelines validated, " << iterations_completed
     << " iterations, " << preemptions << " preemptions, " << rejoins << " rejoins, "
     << scale_ups << " scale-ups";
  return os.str();
}

void ScenarioFuzz::Tally::Add(const Outcome& out) {
  ++cases;
  pipelines += out.pipelines_validated;
  preemptions += out.preemptions;
  rejoins += out.rejoins;
  scale_ups += out.scale_ups;
  (out.churn == ChurnModel::kSpotChurn ? spot : rolling) += 1;
  const std::vector<fault::RecoveryPolicy> policies = fault::AllRecoveryPolicies();
  for (std::size_t p = 0; p < policies.size(); ++p) {
    if (out.policy == policies[p]) ++policy_counts[p];
  }
}

std::string ScenarioFuzz::Tally::ToString(std::uint64_t base) const {
  std::ostringstream os;
  os << cases << " scenario cases ok (seeds " << base << ".."
     << base + static_cast<std::uint64_t>(cases) - 1 << "): " << pipelines
     << " pipelines validated, " << preemptions << " preemptions, " << rejoins
     << " rejoins, " << scale_ups << " scale-ups, 0 OOM\n"
     << "cases per churn model: spot=" << spot << ", rolling=" << rolling << "; per policy:";
  const std::vector<fault::RecoveryPolicy> policies = fault::AllRecoveryPolicies();
  for (std::size_t p = 0; p < policies.size(); ++p) {
    os << (p ? ", " : " ") << fault::ToString(policies[p]) << "=" << policy_counts[p];
  }
  os << "\n";
  return os.str();
}

ScenarioFuzzOutcome ScenarioFuzz::Run(const ScenarioFuzzCase& c) {
  ScenarioFuzzOutcome out;
  out.seed = c.seed;
  out.churn = c.churn;
  out.policy = c.policy;

  // The churn DSL round trip must be a fixed point: parse(print(script))
  // prints identically.
  try {
    const fault::FaultScript script =
        GenerateChurnScript(c.seed, c.cluster, c.churn, c.churn_options);
    const std::string printed = script.ToString();
    const std::string reprinted = fault::ParseFaultScript(printed).ToString();
    if (printed != reprinted) {
      out.report.violations.push_back(
          {"scenario-roundtrip", "churn script round trip drifted:\n  printed:   " +
                                     printed + "\n  reprinted: " + reprinted});
    }
  } catch (const std::exception& e) {
    out.report.violations.push_back(
        {"exception", std::string("churn script generation threw: ") + e.what()});
    return out;
  }

  EpisodeOptions options;
  options.seed = c.seed;
  options.churn = c.churn;
  options.churn_options = c.churn_options;
  options.policy = c.policy;
  options.fault = c.options;
  // Every pipeline the episode builds — initial, checkpoint-remapped,
  // elastically replanned, scale-up — must satisfy the full invariant set
  // and run without a single OOM task when executed fault-free.
  options.fault.pipeline_observer =
      check::ValidatingObserver("scenario", &out.report, &out.pipelines_validated);

  try {
    const EpisodeReport report = RunEpisode(c.model, c.cluster, c.plan, options);
    out.iterations_completed = report.fault.iterations_completed;
    out.preemptions = report.preemptions;
    out.rejoins = report.rejoins;
    out.scale_ups = report.fault.scale_ups;

    if (report.preemptions < 1) {
      out.report.violations.push_back(
          {"scenario-stream", "churn generator produced an episode with no preemption"});
    }
    if (report.fault.max_scale_up_rollback > c.options.checkpoint_period) {
      out.report.violations.push_back(
          {"scenario-rollback",
           "scale-up cutover rolled back " +
               std::to_string(report.fault.max_scale_up_rollback) +
               " iterations, past the checkpoint period " +
               std::to_string(c.options.checkpoint_period)});
    }
    check::CheckFaultReport(report.fault, "scenario", &out.report);
  } catch (const std::exception& e) {
    out.report.violations.push_back(
        {"exception", std::string("episode threw: ") + e.what()});
  }
  return out;
}

}  // namespace dapple::scenario
