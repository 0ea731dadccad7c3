#include "planner/pipedream_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace dapple::planner {

PipedreamPlanner::PipedreamPlanner(const model::ModelProfile& model,
                                   const topo::Cluster& cluster, PipedreamOptions options)
    : model_(&model), cluster_(&cluster), options_(options) {
  if (options_.micro_batch_size <= 0) {
    options_.micro_batch_size = model.profile_micro_batch();
  }
}

double PipedreamPlanner::StageTime(int layer_begin, int layer_end, int replicas) const {
  // PipeDream's per-stage cost: compute split across replicas, plus the
  // data-parallel weight-sync the stage incurs (4(m-1)/m * |w| over the
  // slowest link, per the PipeDream paper), at the training micro-batch.
  const double samples = static_cast<double>(options_.micro_batch_size) / replicas;
  const TimeSec compute = model_->ForwardTime(layer_begin, layer_end, samples) +
                          model_->BackwardTime(layer_begin, layer_end, samples);
  TimeSec sync = 0.0;
  if (replicas > 1) {
    const Bytes weights = model_->ParamBytes(layer_begin, layer_end);
    // Contiguous assignment: a replica group of this size spans servers
    // whenever it exceeds one machine.
    const BytesPerSec bw = replicas > cluster_->gpus_per_server()
                               ? cluster_->interconnect().inter_server_bandwidth
                               : cluster_->interconnect().intra_server_bandwidth;
    sync = 4.0 * (replicas - 1) / replicas * static_cast<double>(weights) / bw;
  }
  return compute + sync;
}

ParallelPlan PipedreamPlanner::Plan() const {
  const int n = model_->num_layers();
  const int g = cluster_->num_devices();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // dp[j][m] = minimal bottleneck for layers [0, j) on m devices.
  std::vector<std::vector<double>> dp(static_cast<std::size_t>(n + 1),
                                      std::vector<double>(static_cast<std::size_t>(g + 1),
                                                          kInf));
  struct Choice {
    int split = -1;     // previous boundary
    int replicas = 0;   // replicas of the final stage
  };
  std::vector<std::vector<Choice>> choice(
      static_cast<std::size_t>(n + 1),
      std::vector<Choice>(static_cast<std::size_t>(g + 1)));

  dp[0][0] = 0.0;
  for (int j = 1; j <= n; ++j) {
    for (int m = 1; m <= g; ++m) {
      for (int k = 0; k < j; ++k) {
        for (int r = 1; r <= m; ++r) {
          if (k == 0 && r != m) continue;  // first stage consumes the rest
          const double prev = dp[static_cast<std::size_t>(k)][static_cast<std::size_t>(m - r)];
          if (!std::isfinite(prev)) continue;
          double stage = StageTime(k, j, r);
          if (k > 0) {
            // Inbound activation transfer is part of the stage's period.
            const Bytes act = model_->ActivationAt(
                k, static_cast<double>(options_.micro_batch_size));
            stage += 2.0 * static_cast<double>(act) /
                     cluster_->interconnect().inter_server_bandwidth;
          }
          const double value = std::max(prev, stage);
          if (value < dp[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)]) {
            dp[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] = value;
            choice[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)] = {k, r};
          }
        }
      }
    }
  }

  DAPPLE_CHECK(std::isfinite(dp[static_cast<std::size_t>(n)][static_cast<std::size_t>(g)]))
      << "PipeDream DP found no partition";

  // Reconstruct stages back to front, then assign devices contiguously.
  std::vector<std::pair<int, int>> ranges;  // (begin, replicas), back to front
  std::vector<int> replica_counts;
  int j = n, m = g;
  while (j > 0) {
    const Choice c = choice[static_cast<std::size_t>(j)][static_cast<std::size_t>(m)];
    DAPPLE_CHECK_GE(c.replicas, 1) << "corrupt PipeDream DP table";
    ranges.emplace_back(c.split, c.replicas);
    j = c.split;
    m -= c.replicas;
  }
  std::reverse(ranges.begin(), ranges.end());

  ParallelPlan plan;
  plan.model = model_->name();
  int layer_begin = 0;
  topo::DeviceId next_device = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const int layer_end = i + 1 < ranges.size() ? ranges[i + 1].first : n;
    StagePlan stage;
    stage.layer_begin = layer_begin;
    stage.layer_end = layer_end;
    stage.devices = topo::DeviceSet::Range(next_device, ranges[i].second);
    plan.stages.push_back(std::move(stage));
    next_device += ranges[i].second;
    layer_begin = layer_end;
  }
  plan.Validate(*model_);
  return plan;
}

double PipedreamPlanner::Bottleneck(const ParallelPlan& plan) const {
  double worst = 0.0;
  for (const StagePlan& s : plan.stages) {
    worst = std::max(worst, StageTime(s.layer_begin, s.layer_end, s.replication()));
  }
  return worst;
}

}  // namespace dapple::planner
