#include "scenario/stream.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace dapple::scenario {

namespace {

constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();

/// Salt for the churn side-stream. Unique among the repository's stream
/// salts so a scenario sweep and the schedule/fault/memory-cap fuzz
/// sweeps can share seed ranges without correlating — and so adding this
/// generator shifted none of the existing pinned seeds.
constexpr std::uint64_t kChurnStreamSalt = 0x6a09e667f3bcc909ull;

fault::FaultEvent Crash(topo::DeviceId device, TimeSec at) {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kDeviceCrash;
  e.device = device;
  e.start = at;
  e.end = kInf;
  return e;
}

fault::FaultEvent Rejoin(topo::DeviceId device, TimeSec at) {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kDeviceRejoin;
  e.device = device;
  e.start = at;
  e.end = kInf;
  return e;
}

/// Fail-stopping any device drains its whole server in the degraded-cluster
/// model, so churn targets each server's first device — the outage
/// granularity the recovery layer actually sees.
topo::DeviceId ServerDevice(const topo::Cluster& cluster, topo::ServerId s) {
  return s * cluster.gpus_per_server();
}

void AddSpotChurn(Rng& rng, const topo::Cluster& cluster, const ChurnOptions& options,
                  fault::FaultScript& script) {
  const int num_servers = cluster.num_servers();
  std::vector<TimeSec> outage_end(static_cast<std::size_t>(num_servers), 0.0);
  const double rate = std::max(options.preempt_rate, 1e-9);
  int preemptions = 0;

  TimeSec t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate;
    if (t >= 0.9 * options.horizon) break;
    const auto s =
        static_cast<topo::ServerId>(rng.UniformInt(0, num_servers - 1));
    const TimeSec duration = rng.Uniform(options.min_outage, options.max_outage);
    const bool returns = rng.Bernoulli(options.rejoin_probability);
    if (outage_end[static_cast<std::size_t>(s)] > t) continue;  // already down
    // Never preempt the last healthy server: an episode where the whole
    // cluster is gone measures nothing about recovery.
    int down = 0;
    for (TimeSec end : outage_end)
      if (end > t) ++down;
    if (down + 1 >= num_servers) continue;

    const topo::DeviceId device = ServerDevice(cluster, s);
    const TimeSec back = t + duration;
    script.events.push_back(Crash(device, t));
    if (returns && back < options.horizon) {
      script.events.push_back(Rejoin(device, back));
      outage_end[static_cast<std::size_t>(s)] = back;
    } else {
      outage_end[static_cast<std::size_t>(s)] = kInf;  // permanent
    }
    ++preemptions;
  }

  if (preemptions == 0) {
    // A churn episode without churn is vacuous; force one mid-horizon
    // preemption (with a rejoin whenever the options allow one at all).
    const auto s =
        static_cast<topo::ServerId>(rng.UniformInt(0, num_servers - 1));
    const topo::DeviceId device = ServerDevice(cluster, s);
    const TimeSec at = 0.35 * options.horizon;
    const TimeSec back = at + options.min_outage;
    script.events.push_back(Crash(device, at));
    if (options.rejoin_probability > 0.0 && back < options.horizon) {
      script.events.push_back(Rejoin(device, back));
    }
  }
}

void AddRollingMaintenance(Rng& rng, const topo::Cluster& cluster,
                           const ChurnOptions& options, fault::FaultScript& script) {
  const int num_servers = cluster.num_servers();
  const TimeSec offset = rng.Uniform(0.05 * options.horizon, 0.15 * options.horizon);
  const auto first =
      static_cast<topo::ServerId>(rng.UniformInt(0, num_servers - 1));
  std::vector<TimeSec> last_end(static_cast<std::size_t>(num_servers), 0.0);

  int drains = 0;
  for (int k = 0;; ++k) {
    const TimeSec start = offset + k * options.maintenance_period;
    if (start >= 0.9 * options.horizon) break;
    const topo::ServerId s = (first + k) % num_servers;
    if (start < last_end[static_cast<std::size_t>(s)]) continue;  // still draining
    const topo::DeviceId device = ServerDevice(cluster, s);
    const TimeSec end = start + options.drain_duration;
    script.events.push_back(Crash(device, start));
    if (end < options.horizon) {
      script.events.push_back(Rejoin(device, end));
      last_end[static_cast<std::size_t>(s)] = end;
    } else {
      last_end[static_cast<std::size_t>(s)] = kInf;
    }
    ++drains;
  }

  if (drains == 0) {
    const topo::DeviceId device = ServerDevice(cluster, first);
    const TimeSec at = 0.35 * options.horizon;
    const TimeSec back = at + options.drain_duration;
    script.events.push_back(Crash(device, at));
    if (back < options.horizon) script.events.push_back(Rejoin(device, back));
  }
}

void AddStragglerNoise(Rng& rng, const topo::Cluster& cluster, const ChurnOptions& options,
                       fault::FaultScript& script) {
  if (options.slowdown_probability <= 0.0) return;
  // One Bernoulli per fault already generated keeps the noise level
  // proportional to the churn level.
  const int faults = static_cast<int>(script.events.size());
  for (int i = 0; i < faults; ++i) {
    if (!rng.Bernoulli(options.slowdown_probability)) continue;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kDeviceSlowdown;
    e.server = static_cast<topo::ServerId>(
        rng.UniformInt(0, cluster.num_servers() - 1));
    e.start = rng.Uniform(0.0, 0.7 * options.horizon);
    e.end = e.start + rng.Uniform(0.05 * options.horizon, 0.25 * options.horizon);
    e.compute_multiplier = rng.Uniform(0.4, 0.9);
    script.events.push_back(e);
  }
}

}  // namespace

const char* ToString(ChurnModel model) {
  switch (model) {
    case ChurnModel::kSpotChurn: return "spot";
    case ChurnModel::kRollingMaintenance: return "rolling";
  }
  return "?";
}

ChurnModel ParseChurnModel(const std::string& name) {
  if (name == "spot") return ChurnModel::kSpotChurn;
  if (name == "rolling") return ChurnModel::kRollingMaintenance;
  throw Error("unknown churn model '" + name + "' (spot | rolling)");
}

fault::FaultScript GenerateChurnScript(std::uint64_t seed, const topo::Cluster& cluster,
                                       ChurnModel model, const ChurnOptions& options) {
  DAPPLE_CHECK_GT(options.horizon, 0.0) << "churn horizon must be positive";
  Rng rng(seed * 0x9e3779b97f4a7c15ull + kChurnStreamSalt);
  fault::FaultScript script;
  switch (model) {
    case ChurnModel::kSpotChurn:
      AddSpotChurn(rng, cluster, options, script);
      break;
    case ChurnModel::kRollingMaintenance:
      AddRollingMaintenance(rng, cluster, options, script);
      break;
  }
  AddStragglerNoise(rng, cluster, options, script);
  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                     return a.start < b.start;
                   });
  script.Validate(cluster);
  return script;
}

}  // namespace dapple::scenario
