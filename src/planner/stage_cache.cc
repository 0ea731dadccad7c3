#include "planner/stage_cache.h"

#include "obs/metrics.h"

namespace dapple::planner {

namespace {

std::uint64_t MaskOf(const topo::DeviceSet& devices) {
  std::uint64_t mask = 0;
  for (topo::DeviceId d : devices.devices()) {
    mask |= std::uint64_t{1} << (static_cast<unsigned>(d) & 63u);
  }
  return mask;
}

}  // namespace

StageCostKey StageCostCache::CompKey(int layer_begin, int layer_end,
                                     const topo::DeviceSet& devices, int micro_batch_size,
                                     bool recompute) {
  StageCostKey key;
  key.kind = StageCostKey::Kind::kComp;
  key.layer_begin = layer_begin;
  key.layer_end = layer_end;
  key.micro_batch_size = micro_batch_size;
  key.aux = recompute ? 1 : 0;
  key.mask_a = MaskOf(devices);
  return key;
}

StageCostKey StageCostCache::CommKey(int boundary, const topo::DeviceSet& from,
                                     const topo::DeviceSet& to, int micro_batch_size) {
  StageCostKey key;
  key.kind = StageCostKey::Kind::kComm;
  key.layer_begin = boundary;
  key.layer_end = boundary;
  key.micro_batch_size = micro_batch_size;
  key.mask_a = MaskOf(from);
  key.mask_b = MaskOf(to);
  return key;
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
