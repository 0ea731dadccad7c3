#include "planner/stage_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::planner {

RowInputs::RowInputs(const topo::Cluster& cluster)
    : devices_(static_cast<std::size_t>(cluster.num_devices())),
      server_rank_(static_cast<std::size_t>(cluster.num_servers())) {
  // Server s's speed, computed as Cluster::device_speed computes it.
  std::vector<double> speed(server_rank_.size());
  for (topo::ServerId s = 0; s < cluster.num_servers(); ++s) {
    speed[static_cast<std::size_t>(s)] = cluster.device().relative_speed * cluster.server_speed(s);
  }
  speeds_ = speed;
  std::sort(speeds_.begin(), speeds_.end());
  speeds_.erase(std::unique(speeds_.begin(), speeds_.end()), speeds_.end());
  for (std::size_t s = 0; s < speed.size(); ++s) {
    server_rank_[s] = static_cast<int>(
        std::lower_bound(speeds_.begin(), speeds_.end(), speed[s]) - speeds_.begin());
  }
}

std::size_t RowInputs::Comp(std::span<const int> counts) const {
  int size = 0;
  int servers = 0;
  int rank = static_cast<int>(speeds_.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    size += counts[s];
    ++servers;
    rank = std::min(rank, server_rank_[s]);
  }
  DAPPLE_CHECK_GT(size, 0) << "a computation row needs devices";
  return (static_cast<std::size_t>(size - 1) * 2 + (servers == 1 ? 1 : 0)) * speeds_.size() +
         static_cast<std::size_t>(rank);
}

std::size_t RowInputs::Link(std::span<const int> from, std::span<const int> to) const {
  int from_size = 0;
  int to_size = 0;
  int servers = 0;
  bool intra = false;
  for (std::size_t s = 0; s < from.size(); ++s) {
    from_size += from[s];
    to_size += to[s];
    if (from[s] + to[s] > 0) ++servers;
    // Disjoint sets: a server holding both has two distinct devices on it.
    if (from[s] > 0 && to[s] > 0) intra = true;
  }
  return Link(comm::StageLink{from_size, to_size, intra, servers > 1});
}

std::size_t RowInputs::Link(const comm::StageLink& link) const {
  const auto from = static_cast<std::size_t>(link.from_size);
  const auto to = static_cast<std::size_t>(link.to_size);
  DAPPLE_CHECK(link.from_size >= 1 && from <= devices_ && link.to_size >= 1 && to <= devices_)
      << "a comm row needs devices on both sides";
  return (((from - 1) * devices_ + (to - 1)) * 2 + (link.intra_server ? 1 : 0)) * 2 +
         (link.inter_server ? 1 : 0);
}

CompInputs RowInputs::CompAt(std::size_t index) const {
  const std::size_t shape = index / speeds_.size();
  return {comm::ReplicaGroup{static_cast<int>(shape / 2 + 1), shape % 2 == 1},
          speeds_[index % speeds_.size()]};
}

comm::StageLink RowInputs::LinkAt(std::size_t index) const {
  const std::size_t sizes = index / 4;
  return {static_cast<int>(sizes / devices_ + 1), static_cast<int>(sizes % devices_ + 1),
          (index / 2) % 2 == 1, index % 2 == 1};
}

StageRowMemo::StageRowMemo(const LatencyEstimator& estimator,
                           std::vector<int> micro_batch_sizes)
    : estimator_(&estimator),
      inputs_(estimator.cluster()),
      micro_batch_sizes_(std::move(micro_batch_sizes)),
      layers_(static_cast<std::size_t>(estimator.model().num_layers())),
      pages_(new std::atomic<const RowEntry**>[3 * micro_batch_sizes_.size()]()) {}

StageRowMemo::~StageRowMemo() {
  for (std::size_t p = 0; p < 3 * micro_batch_sizes_.size(); ++p) std::free(pages_[p].load());
}

std::size_t StageRowMemo::PageSize(Family family) const {
  switch (family) {
    case Family::kBegin: return layers_ * 2 * inputs_.num_comp();
    case Family::kEnd: return 2 * inputs_.num_comp();
    case Family::kComm: break;
  }
  return inputs_.num_links();
}

StageRowMemo::Rows StageRowMemo::At(int mbs_index) {
  DAPPLE_CHECK(mbs_index >= 0 && static_cast<std::size_t>(mbs_index) < micro_batch_sizes_.size())
      << "micro-batch index " << mbs_index;
  Rows rows;
  rows.memo_ = this;
  rows.mbs_index_ = mbs_index;
  rows.num_comp_ = inputs_.num_comp();
  rows.layers_ = layers_;
  for (std::size_t f = 0; f < 3; ++f) {
    std::atomic<const RowEntry**>& cell = pages_[3 * static_cast<std::size_t>(mbs_index) + f];
    const RowEntry** page = cell.load(std::memory_order_acquire);
    if (page == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      page = cell.load(std::memory_order_relaxed);
      if (page == nullptr) {
        // calloc: a page's untouched slots cost no resident memory.
        page = static_cast<const RowEntry**>(
            std::calloc(PageSize(static_cast<Family>(f)), sizeof(const RowEntry*)));
        if (page == nullptr) throw std::bad_alloc();
        cell.store(page, std::memory_order_release);
      }
    }
    rows.pages_[f] = page;
  }
  return rows;
}

const RowEntry* StageRowMemo::Fill(Family family, int mbs_index, const RowEntry*& cell,
                                   std::size_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  std::atomic_ref<const RowEntry*> ref(cell);
  if (const RowEntry* row = ref.load(std::memory_order_relaxed)) return row;
  const auto t0 = std::chrono::steady_clock::now();
  const int layers = static_cast<int>(layers_);
  const int mbs = micro_batch_sizes_[static_cast<std::size_t>(mbs_index)];
  auto row = std::make_unique<RowEntry[]>(layers_);
  // Decode the slot back to its key and price the row from the key alone.
  const std::size_t comp = inputs_.num_comp();
  switch (family) {
    case Family::kBegin: {
      const int anchor = static_cast<int>(slot / comp / 2);
      const bool recompute = (slot / comp) % 2 == 1;
      const LatencyEstimator::CompPricer pricer =
          estimator_->CompOn(inputs_.CompAt(slot % comp), mbs, anchor, layers);
      for (int e = anchor + 1; e < layers; ++e) {
        row[static_cast<std::size_t>(e)] = pricer.Entry(anchor, e, recompute);
      }
      break;
    }
    case Family::kEnd: {
      const bool recompute = slot / comp == 1;
      const LatencyEstimator::CompPricer pricer =
          estimator_->CompOn(inputs_.CompAt(slot % comp), mbs, 1, layers);
      for (int b = 1; b < layers; ++b) {
        row[static_cast<std::size_t>(b)] = pricer.Entry(b, layers, recompute);
      }
      break;
    }
    case Family::kComm: {
      const LatencyEstimator::CommPricer pricer =
          estimator_->CommAcross(inputs_.LinkAt(slot), mbs);
      for (int x = 1; x < layers; ++x) {
        const StageCost cost = pricer(x);
        row[static_cast<std::size_t>(x)] = {cost.forward, cost.backward, cost.allreduce, 0, 0};
      }
      break;
    }
  }
  fill_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ref.store(row.get(), std::memory_order_release);
  rows_.push_back(std::move(row));
  return rows_.back().get();
}

StageRowMemo::Stats StageRowMemo::TotalStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {static_cast<std::int64_t>(rows_.size()), fill_seconds_};
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
  // Each row fills exactly once, so the rows held are the misses.
  metrics.gauge("planner.cache.entries").Set(static_cast<double>(stats.cache_misses));
  metrics.histogram("planner.cache.compute_seconds").Observe(stats.cache_compute_seconds);
}

}  // namespace dapple::planner
