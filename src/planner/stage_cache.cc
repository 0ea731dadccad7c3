#include "planner/stage_cache.h"

#include <chrono>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::planner {

const StageRow& StageRowMemo::Row(const StageRowKey& key) {
  Shard& shard = shards_[StageRowKeyHash{}(key) % kShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.rows.find(key);
    if (it != shard.rows.end()) {
      ++shard.hits;
      return it->second;
    }
  }
  // Fill outside the lock so a slow fill does not serialize the shard.
  const auto t0 = std::chrono::steady_clock::now();
  StageRow row = Fill(key);
  const auto t1 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.misses;
  shard.fill_seconds += std::chrono::duration<double>(t1 - t0).count();
  // Another thread may have inserted the key meanwhile: its row is
  // identical, so try_emplace keeps it and drops ours.
  return shard.rows.try_emplace(key, std::move(row)).first->second;
}

StageRow StageRowMemo::Fill(const StageRowKey& key) const {
  const int layers = estimator_->model().num_layers();
  StageRow row(static_cast<std::size_t>(layers));
  switch (key.family) {
    case StageRowKey::Family::kBegin: {
      const LatencyEstimator::CompPricer comp =
          estimator_->CompOn(key.comp, key.micro_batch_size, key.anchor, layers);
      for (int e = key.anchor + 1; e < layers; ++e) {
        row[static_cast<std::size_t>(e)] = comp(key.anchor, e, key.recompute);
      }
      break;
    }
    case StageRowKey::Family::kEnd: {
      const LatencyEstimator::CompPricer comp =
          estimator_->CompOn(key.comp, key.micro_batch_size, 1, layers);
      for (int b = 1; b < layers; ++b) {
        row[static_cast<std::size_t>(b)] = comp(b, layers, key.recompute);
      }
      break;
    }
    case StageRowKey::Family::kComm: {
      const LatencyEstimator::CommPricer comm =
          estimator_->CommAcross(key.link, key.micro_batch_size);
      for (int x = 1; x < layers; ++x) row[static_cast<std::size_t>(x)] = comm(x);
      break;
    }
  }
  return row;
}

const StageRow& StageRowMemo::Begin(int anchor, const topo::DeviceSet& devices,
                                    int micro_batch_size, bool recompute) {
  return Row({StageRowKey::Family::kBegin, recompute, anchor, micro_batch_size,
              CompInputs::Of(estimator_->cluster(), devices), {}});
}

const StageRow& StageRowMemo::End(const topo::DeviceSet& devices, int micro_batch_size,
                                  bool recompute) {
  return Row({StageRowKey::Family::kEnd, recompute, 0, micro_batch_size,
              CompInputs::Of(estimator_->cluster(), devices), {}});
}

const StageRow& StageRowMemo::Comm(const topo::DeviceSet& from, const topo::DeviceSet& to,
                                   int micro_batch_size) {
  return Row({StageRowKey::Family::kComm, false, 0, micro_batch_size, {},
              comm::StageLink::Between(estimator_->cluster(), from, to)});
}

StageRowMemo::Stats StageRowMemo::TotalStats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.entries += static_cast<std::int64_t>(shard.rows.size());
    total.fill_seconds += shard.fill_seconds;
  }
  return total;
}

SplitEntries::SplitEntries(StageRowMemo& memo, const ParallelPlan& plan, int micro_batch_size) {
  DAPPLE_CHECK_GE(plan.num_stages(), 2) << "a split needs a carved stage and a suffix";
  const std::size_t carved = plan.stages.size() - 2;
  prefix_.reserve(2 * carved);
  for (std::size_t i = 0; i < carved; ++i) {
    const StagePlan& stage = plan.stages[i];
    StageCost comp = memo.Begin(stage.layer_begin, stage.devices, micro_batch_size,
                                stage.recompute)[static_cast<std::size_t>(stage.layer_end)];
    comp.comp_index = static_cast<int>(i);
    prefix_.push_back(comp);
    prefix_.push_back(memo.Comm(stage.devices, plan.stages[i + 1].devices,
                                micro_batch_size)[static_cast<std::size_t>(stage.layer_end)]);
  }
  const StagePlan& stage = plan.stages[carved];
  const StagePlan& suffix = plan.stages[carved + 1];
  carved_ = &memo.Begin(stage.layer_begin, stage.devices, micro_batch_size, stage.recompute);
  boundary_ = &memo.Comm(stage.devices, suffix.devices, micro_batch_size);
  suffix_ = &memo.End(suffix.devices, micro_batch_size, suffix.recompute);
}

void ExportSearchStats(const PlannerSearchStats& stats) {
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.counter("planner.parallel.subproblems").Increment(stats.subproblems);
  metrics.counter("planner.parallel.levels").Increment(stats.levels);
  metrics.gauge("planner.parallel.frontier_peak").Set(static_cast<double>(stats.frontier_peak));
  metrics.gauge("planner.parallel.threads").Set(static_cast<double>(stats.threads));
  metrics.histogram("planner.parallel.wall_seconds").Observe(stats.wall_seconds);
  // Cap metrics only when a cap was actually in force, so uncapped runs
  // keep their metric namespace unchanged.
  if (stats.memory_cap > 0) {
    metrics.gauge("planner.cap.bytes").Set(static_cast<double>(stats.memory_cap));
    metrics.counter("planner.cap.memory_rejected").Increment(stats.memory_rejected);
  }
  metrics.counter("planner.cache.hits").Increment(stats.cache_hits);
  metrics.counter("planner.cache.misses").Increment(stats.cache_misses);
  metrics.gauge("planner.cache.hit_rate").Set(stats.cache_hit_rate());
  metrics.gauge("planner.cache.entries").Set(static_cast<double>(stats.cache_entries));
  metrics.histogram("planner.cache.compute_seconds").Observe(stats.cache_compute_seconds);
}

}  // namespace dapple::planner
