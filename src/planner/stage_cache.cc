#include "planner/stage_cache.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::planner {

namespace {

/// This thread's lookup key, reset to `family`: a hit copies nothing, and
/// the device-id buffer keeps its capacity between lookups.
StageRowKey& ScratchKey(StageRowKey::Family family, int anchor, int micro_batch_size,
                        bool recompute) {
  thread_local StageRowKey key;
  key.family = family;
  key.recompute = recompute;
  key.anchor = anchor;
  key.micro_batch_size = micro_batch_size;
  key.devices.clear();
  return key;
}

}  // namespace

template <typename Fill>
std::shared_ptr<const StageRow> StageRowMemo::Row(const StageRowKey& key, Fill&& fill) {
  return rows_.GetOrCompute(key, [&] {
    auto row = std::make_shared<StageRow>(
        static_cast<std::size_t>(estimator_->model().num_layers()));
    fill(*row);
    return std::shared_ptr<const StageRow>(std::move(row));
  });
}

std::shared_ptr<const StageRow> StageRowMemo::Begin(int anchor, const topo::DeviceSet& devices,
                                                    int micro_batch_size, bool recompute) {
  StageRowKey& key =
      ScratchKey(StageRowKey::Family::kBegin, anchor, micro_batch_size, recompute);
  key.devices = devices.devices();
  return Row(key, [&](StageRow& row) {
    const LatencyEstimator::CompPricer comp =
        estimator_->CompOn(devices, micro_batch_size, anchor, static_cast<int>(row.size()));
    for (int e = anchor + 1; e < static_cast<int>(row.size()); ++e) {
      row[static_cast<std::size_t>(e)] = comp(anchor, e, recompute);
    }
  });
}

std::shared_ptr<const StageRow> StageRowMemo::End(const topo::DeviceSet& devices,
                                                  int micro_batch_size, bool recompute) {
  StageRowKey& key = ScratchKey(StageRowKey::Family::kEnd, 0, micro_batch_size, recompute);
  key.devices = devices.devices();
  return Row(key, [&](StageRow& row) {
    const int layers = static_cast<int>(row.size());
    const LatencyEstimator::CompPricer comp =
        estimator_->CompOn(devices, micro_batch_size, 1, layers);
    for (int b = 1; b < layers; ++b) {
      row[static_cast<std::size_t>(b)] = comp(b, layers, recompute);
    }
  });
}

std::shared_ptr<const StageRow> StageRowMemo::Comm(const topo::DeviceSet& from,
                                                   const topo::DeviceSet& to,
                                                   int micro_batch_size) {
  StageRowKey& key = ScratchKey(StageRowKey::Family::kComm, 0, micro_batch_size, false);
  key.devices = from.devices();
  key.devices.push_back(-1);
  key.devices.insert(key.devices.end(), to.devices().begin(), to.devices().end());
  return Row(key, [&](StageRow& row) {
    const LatencyEstimator::CommPricer comm = estimator_->CommAcross(from, to, micro_batch_size);
    for (int x = 1; x < static_cast<int>(row.size()); ++x) {
      row[static_cast<std::size_t>(x)] = comm(x);
    }
  });
}

SplitEntries::SplitEntries(StageRowMemo& memo, const ParallelPlan& plan, int micro_batch_size)
    : entries_(static_cast<std::size_t>(2 * plan.num_stages() - 1)) {
  DAPPLE_CHECK_GE(plan.num_stages(), 2) << "a split needs a carved stage and a suffix";
  first_split_ = plan.stages[plan.stages.size() - 2].layer_begin + 1;
  const std::size_t carved = plan.stages.size() - 2;
  for (std::size_t i = 0; i < carved; ++i) {
    const StagePlan& stage = plan.stages[i];
    StageCost& comp = entries_[2 * i];
    comp = (*memo.Begin(stage.layer_begin, stage.devices, micro_batch_size,
                        stage.recompute))[static_cast<std::size_t>(stage.layer_end)];
    comp.comp_index = static_cast<int>(i);
    entries_[2 * i + 1] = (*memo.Comm(stage.devices, plan.stages[i + 1].devices,
                                      micro_batch_size))[static_cast<std::size_t>(stage.layer_end)];
  }
  const StagePlan& stage = plan.stages[carved];
  const StagePlan& suffix = plan.stages[carved + 1];
  carved_ = memo.Begin(stage.layer_begin, stage.devices, micro_batch_size, stage.recompute);
  boundary_ = memo.Comm(stage.devices, suffix.devices, micro_batch_size);
  suffix_ = memo.End(suffix.devices, micro_batch_size, suffix.recompute);
}

std::span<const StageCost> SplitEntries::At(int jp) {
  DAPPLE_CHECK(jp >= first_split_ && static_cast<std::size_t>(jp) < suffix_->size())
      << "split point " << jp << " outside the subproblem";
  const std::size_t last = entries_.size() - 1;
  const auto x = static_cast<std::size_t>(jp);
  entries_[last - 2] = (*carved_)[x];
  entries_[last - 2].comp_index = static_cast<int>(last / 2 - 1);
  entries_[last - 1] = (*boundary_)[x];
  entries_[last] = (*suffix_)[x];
  entries_[last].comp_index = static_cast<int>(last / 2);
  return entries_;
}

void ExportSearchStats(const PlannerSearchStats& stats) {
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.counter("planner.parallel.subproblems").Increment(stats.subproblems);
  metrics.counter("planner.parallel.levels").Increment(stats.levels);
  metrics.gauge("planner.parallel.threads").Set(static_cast<double>(stats.threads));
  metrics.histogram("planner.parallel.wall_seconds").Observe(stats.wall_seconds);
  // Cap metrics only when a cap was actually in force, so uncapped runs
  // keep their metric namespace unchanged.
  if (stats.memory_cap > 0) {
    metrics.gauge("planner.cap.bytes").Set(static_cast<double>(stats.memory_cap));
    metrics.counter("planner.cap.memory_rejected").Increment(stats.memory_rejected);
    metrics.counter("planner.cap.recompute_stages").Increment(stats.recompute_stages);
    metrics.counter("planner.cap.fit_probes").Increment(stats.fit_probes);
  }
  metrics.counter("planner.cache.hits").Increment(stats.cache_hits);
  metrics.counter("planner.cache.misses").Increment(stats.cache_misses);
  metrics.gauge("planner.cache.hit_rate").Set(stats.cache_hit_rate());
  metrics.histogram("planner.cache.compute_seconds").Observe(stats.cache_compute_seconds);
  // Per-shard distribution: a skewed entry histogram means the key hash is
  // funneling contention onto few locks.
  for (const CacheShardStats& shard : stats.shards) {
    metrics.histogram("planner.cache.shard_entries")
        .Observe(static_cast<double>(shard.entries));
    metrics.histogram("planner.cache.shard_hits").Observe(static_cast<double>(shard.hits));
    metrics.histogram("planner.cache.shard_compute_seconds")
        .Observe(shard.compute_seconds);
  }
}

}  // namespace dapple::planner
