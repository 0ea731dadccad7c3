// churn-episodes: long-horizon churn episodes through
// scenario::RunEpisodeSweep on one simulation thread. One operation is one
// sweep call over the episodes of one episode seed: spot churn and rolling
// maintenance, each under all four recovery policies. The calls cycle
// through a fixed pool of kPoolSeeds episode seeds, each cycle in an order
// drawn from --seed: episode costs differ by orders of magnitude between
// seeds, so a pool drawn afresh for every run would move the median call
// time with the seed. Every 16th episode is re-run on a four-thread sweep
// and must match byte for byte.
#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "dapple/dapple.h"
#include "replay.h"
#include "scenario/episode.h"
#include "scenario/report.h"
#include "scenario/stream.h"

namespace dapple::e2e {

namespace {

constexpr int kPoolSeeds = 32;
constexpr std::uint64_t kPoolSeed = 0xc0ffee;
constexpr int kCheckEvery = 16;
/// Goodput and the per-episode fault counts are averaged over the episodes
/// of the first cycle, the whole pool, however many calls the window
/// holds, so they repeat exactly for a seed.
constexpr int kQualityCalls = kPoolSeeds;
/// Sweep calls each set-up runs to warm up. Their seeds are the same for
/// every --seed, so set-up does the same work in every run.
constexpr int kWarmUpCalls = 2;
constexpr std::uint64_t kWarmUpSeed = 0x5eedc0de;

struct ChurnState {
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
  scenario::EpisodeOptions base;
};

ChurnState Setup() {
  // GNMT-16 on a 4-server Config-B slice at batch 64, with the churn and
  // control-plane cost settings of bench_scenario (iterations are ~100 ms
  // here, so checkpoint/restore/replan costs are scaled to match), a
  // 120 s horizon, straggler windows and non-certain rejoins.
  ChurnState state{model::MakeGnmt16(), topo::MakeConfigB(4), {}, {}};
  planner::PlannerOptions planner_options;
  planner_options.global_batch_size = 64;
  planner_options.keep_alternatives = 0;
  planner_options.num_threads = 1;
  state.plan = planner::DapplePlanner(state.model, state.cluster, planner_options).Plan().plan;

  scenario::EpisodeOptions& o = state.base;
  o.churn_options.horizon = 120.0;
  o.churn_options.preempt_rate = 0.08;
  o.churn_options.min_outage = 3.0;
  o.churn_options.max_outage = 6.0;
  o.churn_options.rejoin_probability = 0.9;
  o.churn_options.maintenance_period = 10.0;
  o.churn_options.drain_duration = 4.0;
  o.churn_options.slowdown_probability = 0.2;
  o.fault.build.global_batch_size = 64;
  o.fault.planner.keep_alternatives = 0;
  o.fault.planner.num_threads = 1;  // replans stay on the sweep's thread
  o.fault.checkpoint_period = 10;
  o.fault.checkpoint_cost = 0.02;
  o.fault.restore_cost = 0.25;
  o.fault.detect_latency = 0.1;
  o.fault.replan_cost = 0.25;
  return state;
}

/// The eight episodes of one episode seed.
std::vector<scenario::EpisodeOptions> Batch(const ChurnState& state, std::uint64_t seed) {
  std::vector<scenario::EpisodeOptions> batch;
  for (scenario::ChurnModel churn :
       {scenario::ChurnModel::kSpotChurn, scenario::ChurnModel::kRollingMaintenance}) {
    for (fault::RecoveryPolicy policy : fault::AllRecoveryPolicies()) {
      scenario::EpisodeOptions o = state.base;
      o.seed = seed;
      o.churn = churn;
      o.policy = policy;
      batch.push_back(o);
    }
  }
  return batch;
}

struct Checked {
  scenario::EpisodeOptions options;
  std::string json;
};

}  // namespace

RunResult RunChurnEpisodes(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  // Set-up plans the job and warms up on sweeps of fixed episodes.
  auto setup = [] {
    ChurnState built = Setup();
    for (int call = 0; call < kWarmUpCalls; ++call) {
      scenario::RunEpisodeSweep(built.model, built.cluster, built.plan,
                                Batch(built, MixSeed(kWarmUpSeed, call)), /*sim_threads=*/1);
    }
    return built;
  };
  const ChurnState state = RepeatSetup(result, setup);

  SpanBuffer* spans = options.trace ? &tracer.NewBuffer() : nullptr;
  std::vector<SampledOp> sampled;
  std::vector<Checked> checked;
  std::vector<std::vector<scenario::EpisodeOptions>> batches;  // sampled calls only
  double goodput = 0.0, replans = 0.0, iterations = 0.0;
  long episodes = 0;
  long quality_episodes = 0;

  Rng rng(MixSeed(options.seed, 300));
  std::vector<std::uint64_t> cycle(kPoolSeeds);

  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Clock::time_point start = Clock::now();
  for (std::int64_t call = 0;; ++call) {
    if (call % kPoolSeeds == 0) {
      std::iota(cycle.begin(), cycle.end(), std::uint64_t{0});
      for (std::size_t i = cycle.size(); i > 1; --i) {
        std::swap(cycle[i - 1], cycle[static_cast<std::size_t>(
                                    rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    std::vector<scenario::EpisodeOptions> batch =
        Batch(state, MixSeed(kPoolSeed, cycle[static_cast<std::size_t>(call % kPoolSeeds)]));
    const Clock::time_point t0 = Clock::now();
    const std::vector<scenario::EpisodeReport> reports = scenario::RunEpisodeSweep(
        state.model, state.cluster, state.plan, batch, /*sim_threads=*/1);
    const Clock::time_point t1 = Clock::now();
    result.ops.push_back({t0, t1});
    if (spans && call % kSampleEvery == 0) {
      sampled.push_back(
          SampledOp{call, spans->Add("op.episode_sweep", t0, t1, call), batches.size()});
      batches.push_back(batch);
      result.record_seconds += SecondsBetween(t1, Clock::now());
    }
    for (std::size_t i = 0; i < reports.size(); ++i, ++episodes) {
      if (call < kQualityCalls) {
        goodput += reports[i].fault.goodput;
        replans += reports[i].fault.replans;
        iterations += reports[i].fault.iterations_completed;
        ++quality_episodes;
      }
      if (episodes % kCheckEvery == 0) {
        checked.push_back(Checked{batch[i], scenario::ToJson(reports[i])});
      }
    }
    if (SecondsBetween(start, t1) >= options.seconds) break;
  }
  result.window = {start, Clock::now()};
  const RegistrySnapshot after = RegistrySnapshot::Take();
  result.attempted = episodes;
  RepeatSetup(result, setup);
  AddRegistryLayers(result, before, after);
  const double n = static_cast<double>(quality_episodes);
  result.layers["episode.goodput"] = goodput / n;
  result.layers["fault.replans"] = replans / n;
  result.layers["fault.iterations"] = iterations / n;

  // Every 16th episode again, in one sweep on four simulation threads.
  std::vector<scenario::EpisodeOptions> rerun;
  for (const Checked& c : checked) rerun.push_back(c.options);
  const std::vector<scenario::EpisodeReport> parallel = scenario::RunEpisodeSweep(
      state.model, state.cluster, state.plan, rerun, /*sim_threads=*/4);
  for (std::size_t i = 0; i < checked.size(); ++i) {
    if (scenario::ToJson(parallel[i]) != checked[i].json) {
      result.Fail("episode differs from its rerun on a four-thread sweep");
    }
  }

  if (spans) {
    Replayer replayer(*spans, kReplayShare * options.seconds);
    for (const SampledOp& s : sampled) {
      if (!replayer.HasBudget()) break;
      // Replay elastic-up episodes only: per-call cost differs by orders of
      // magnitude between policies (sync-stall halts at the first crash), so
      // a median over a policy mix would sit between modes. Successive
      // samples walk the batch's seeds and churn models.
      std::vector<const scenario::EpisodeOptions*> elastic;
      for (const scenario::EpisodeOptions& o : batches[s.input]) {
        if (o.policy == fault::RecoveryPolicy::kElasticUp) elastic.push_back(&o);
      }
      const scenario::EpisodeOptions& o = *elastic[s.input % elastic.size()];
      const fault::FaultScript script = spans->Time("scenario.stream", s.op, s.span, [&] {
        return scenario::GenerateChurnScript(o.seed, state.cluster, o.churn, o.churn_options);
      });
      fault::FaultOptions fault_options = o.fault;
      fault_options.horizon = o.churn_options.horizon;
      spans->Time("fault.experiment", s.op, s.span, [&] {
        return fault::RunFaultExperiment(state.model, state.cluster, state.plan, script,
                                         o.policy, fault_options);
      });
    }
    replayer.Finish(result);
  }
  return result;
}

}  // namespace dapple::e2e
