#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace dapple::sim {

TimeSec FinishTime(const ResourceSpeedProfile& profile, TimeSec start, TimeSec work) {
  if (work <= 0.0) return start;
  constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();
  const auto& segs = profile.segments;
  TimeSec t = start;
  TimeSec remaining = work;
  // Index of the segment active at `t` (-1 = the implicit unit-speed lead-in
  // before the first breakpoint).
  int i = -1;
  while (i + 1 < static_cast<int>(segs.size()) &&
         segs[static_cast<std::size_t>(i + 1)].start <= t) {
    ++i;
  }
  for (;;) {
    const double speed = i < 0 ? 1.0 : segs[static_cast<std::size_t>(i)].speed;
    const TimeSec seg_end = i + 1 < static_cast<int>(segs.size())
                                ? segs[static_cast<std::size_t>(i + 1)].start
                                : kInf;
    if (speed > 0.0) {
      const TimeSec finish = t + remaining / speed;
      if (finish <= seg_end) return finish;
      remaining -= (seg_end - t) * speed;
    } else if (seg_end == kInf) {
      return kInf;  // trailing zero-speed segment: pinned forever
    }
    t = seg_end;
    ++i;
  }
}

double SimResult::Utilization(ResourceId r) const {
  if (makespan <= 0.0) return 0.0;
  return resources.at(static_cast<std::size_t>(r)).busy / makespan;
}

double SimResult::ComputeUtilization(ResourceId r) const {
  if (makespan <= 0.0) return 0.0;
  return resources.at(static_cast<std::size_t>(r)).compute_busy / makespan;
}

Bytes SimResult::MaxPeakMemory() const {
  Bytes peak = 0;
  for (const MemoryPool& p : pools) peak = std::max(peak, p.peak());
  return peak;
}

bool SimResult::AnyOom() const {
  return std::any_of(pools.begin(), pools.end(),
                     [](const MemoryPool& p) { return p.oom(); });
}

namespace internal {

SimResult MakeResultShell(const TaskGraph& graph, const EngineOptions& options) {
  // One pass: the highest resource id, and alloc plus free effects per pool
  // (an upper bound on the samples a run adds to that pool's timeline).
  ResourceId max_resource = 0;
  std::vector<std::int32_t> pool_events;
  for (const Task& task : graph.tasks()) {
    max_resource = std::max(max_resource, task.resource);
    if (task.pool < 0) continue;
    const auto pool = static_cast<std::size_t>(task.pool);
    if (pool >= pool_events.size()) pool_events.resize(pool + 1, 0);
    pool_events[pool] += (task.alloc_at_start > 0 ? 1 : 0) + (task.free_at_end > 0 ? 1 : 0);
  }
  const std::size_t num_pools = std::max(
      {pool_events.size(), options.pool_capacities.size(), options.pool_baselines.size()});

  SimResult result;
  result.records.resize(static_cast<std::size_t>(graph.num_tasks()));
  result.resources.resize(static_cast<std::size_t>(max_resource) + 1);
  result.pools.reserve(num_pools);
  for (std::size_t p = 0; p < num_pools; ++p) {
    const Bytes cap = p < options.pool_capacities.size() ? options.pool_capacities[p] : 0;
    const std::size_t events =
        p < pool_events.size() ? static_cast<std::size_t>(pool_events[p]) : 0;
    result.pools.emplace_back(cap, events);
    if (p < options.pool_baselines.size()) {
      result.pools.back().SetBaseline(options.pool_baselines[p]);
    }
  }
  return result;
}

void IndexProfiles(const EngineOptions& options, int num_resources,
                   std::vector<const ResourceSpeedProfile*>& profile_of) {
  for (const ResourceSpeedProfile& p : options.resource_speeds) {
    DAPPLE_CHECK(p.resource >= 0 && p.resource < num_resources)
        << "speed profile for unknown resource " << p.resource;
    const ResourceSpeedProfile*& slot = profile_of[static_cast<std::size_t>(p.resource)];
    DAPPLE_CHECK(slot == nullptr) << "two speed profiles for resource " << p.resource;
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      DAPPLE_CHECK(p.segments[s].speed >= 0.0) << "negative resource speed";
      if (s == 0) {
        DAPPLE_CHECK(!std::isnan(p.segments[s].start)) << "speed segment start is NaN";
      } else {
        DAPPLE_CHECK_GT(p.segments[s].start, p.segments[s - 1].start)
            << "speed segments must be sorted by start";
      }
    }
    slot = &p;
  }
  // An empty profile runs at unit speed: keep its resource on the
  // fixed-duration path.
  for (const ResourceSpeedProfile& p : options.resource_speeds) {
    if (p.segments.empty()) profile_of[static_cast<std::size_t>(p.resource)] = nullptr;
  }
}

[[noreturn]] void ThrowDeadlock(const TaskGraph& graph, const SimResult& result,
                                int executed) {
  std::ostringstream os;
  os << "task graph deadlock: executed " << executed << " of "
     << graph.num_tasks() << " tasks; first blocked:";
  int listed = 0;
  for (TaskId t = 0; t < graph.num_tasks() && listed < 5; ++t) {
    if (!result.records[static_cast<std::size_t>(t)].executed) {
      os << " '" << TaskName(graph.task(t)) << "'";
      ++listed;
    }
  }
  throw Error(os.str());
}

}  // namespace internal

using internal::IndexProfiles;
using internal::MakeResultShell;
using internal::ThrowDeadlock;

// --- Engine (TaskGraph in place + packed binary heaps) -------------------

SimResult Engine::Simulate(const TaskGraph& graph, const EngineOptions& options) {
  // Heap comparators are the reverse of the drain order (std::push_heap
  // builds max-heaps): lowest (time, key) / lowest key surfaces at front().
  auto completion_later = [](const Completion& a, const Completion& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.key > b.key;
  };
  auto ready_later = [](std::uint64_t a, std::uint64_t b) { return a > b; };

  const std::vector<Task>& tasks = graph.tasks();
  const int n = graph.num_tasks();
  SimResult result = MakeResultShell(graph, options);
  const auto num_resources = static_cast<std::int32_t>(result.resources.size());

  // (priority, id) lexicographic as one unsigned key, so heap sifts compare
  // a single integer: the signed priority sign-biased into the high 32 bits,
  // the (non-negative) id in the low 32.
  auto ready_key = [&tasks](TaskId id) {
    const auto priority = static_cast<std::uint32_t>(tasks[static_cast<std::size_t>(id)].priority);
    return static_cast<std::uint64_t>(priority ^ 0x80000000u) << 32 |
           static_cast<std::uint32_t>(id);
  };
  auto key_task = [](std::uint64_t key) {
    return static_cast<TaskId>(static_cast<std::uint32_t>(key));
  };

  // Re-arm the arena. assign()/clear() keep each vector's capacity, so after
  // the first run of a given shape the event loop allocates nothing.
  pending_.resize(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) pending_[static_cast<std::size_t>(t)] = graph.in_degree(t);
  profile_of_.assign(static_cast<std::size_t>(num_resources), nullptr);
  IndexProfiles(options, num_resources, profile_of_);
  const bool any_profile = !options.resource_speeds.empty();
  if (ready_.size() < static_cast<std::size_t>(num_resources)) {
    ready_.resize(static_cast<std::size_t>(num_resources));
  }
  for (int r = 0; r < num_resources; ++r) ready_[static_cast<std::size_t>(r)].clear();
  busy_.assign(static_cast<std::size_t>(num_resources), 0);
  completions_.clear();
  wake_.clear();

  TaskRecord* const records = result.records.data();
  int executed = 0;
  TimeSec now = 0.0;

  auto start_task = [&](TaskId id) {
    const auto uid = static_cast<std::size_t>(id);
    const Task& task = tasks[uid];
    busy_[static_cast<std::size_t>(task.resource)] = 1;
    TaskRecord& rec = records[uid];
    rec.id = id;
    rec.start = now;
    rec.started = true;
    if (!any_profile) {
      rec.end = now + task.duration;
    } else {
      const ResourceSpeedProfile* profile = profile_of_[static_cast<std::size_t>(task.resource)];
      rec.end = profile ? FinishTime(*profile, now, task.duration) : now + task.duration;
    }
    if (task.pool >= 0 && task.alloc_at_start > 0) {
      result.pools[static_cast<std::size_t>(task.pool)].Allocate(now, task.alloc_at_start);
    }
    if (rec.end == std::numeric_limits<TimeSec>::infinity()) {
      // Pinned by a permanent zero-speed window: the resource stays
      // occupied, the task never completes, and its record stays
      // executed = false.
      return;
    }
    rec.executed = true;
    completions_.push_back({rec.end, ready_key(id)});
    std::push_heap(completions_.begin(), completions_.end(), completion_later);
  };

  auto dispatch_resource = [&](std::int32_t r) {
    auto& queue = ready_[static_cast<std::size_t>(r)];
    if (busy_[static_cast<std::size_t>(r)] != 0 || queue.empty()) return;
    std::pop_heap(queue.begin(), queue.end(), ready_later);
    const TaskId next = key_task(queue.back());
    queue.pop_back();
    start_task(next);
  };

  auto enqueue_ready = [&](TaskId id) {
    auto& queue = ready_[static_cast<std::size_t>(tasks[static_cast<std::size_t>(id)].resource)];
    queue.push_back(ready_key(id));
    std::push_heap(queue.begin(), queue.end(), ready_later);
  };

  // Seed with all zero-indegree tasks.
  for (TaskId t = 0; t < n; ++t) {
    if (pending_[static_cast<std::size_t>(t)] == 0) enqueue_ready(t);
  }
  for (std::int32_t r = 0; r < num_resources; ++r) dispatch_resource(r);

  while (!completions_.empty()) {
    std::pop_heap(completions_.begin(), completions_.end(), completion_later);
    const Completion done = completions_.back();
    completions_.pop_back();
    now = done.time;
    const TaskId id = key_task(done.key);
    const auto uid = static_cast<std::size_t>(id);
    const Task& task = tasks[uid];
    const ResourceId res = task.resource;

    ++executed;
    ResourceUsage& usage = result.resources[static_cast<std::size_t>(res)];
    if (usage.tasks_executed == 0) usage.first_start = records[uid].start;
    // With a speed profile the wall-clock occupancy differs from the work;
    // without one, use the duration directly to keep fault-free runs
    // bit-exact with the reference engine.
    const TimeSec elapsed =
        any_profile && profile_of_[static_cast<std::size_t>(res)] != nullptr
            ? done.time - records[uid].start
            : task.duration;
    usage.busy += elapsed;
    if (IsComputeKind(task.kind)) usage.compute_busy += elapsed;
    usage.last_end = now;
    usage.tasks_executed++;
    result.makespan = std::max(result.makespan, now);

    if (task.pool >= 0 && task.free_at_end > 0) {
      result.pools[static_cast<std::size_t>(task.pool)].Free(now, task.free_at_end);
    }

    busy_[static_cast<std::size_t>(res)] = 0;

    // Only the freed resource and resources whose ready queue gained a task
    // can start something; dispatching is idempotent, so duplicates in the
    // wake list are harmless. Dispatching exactly those keeps the loop
    // O(successors) per event instead of O(num_resources).
    wake_.clear();
    wake_.push_back(res);
    for (const TaskId s : graph.successors(id)) {
      if (--pending_[static_cast<std::size_t>(s)] == 0) {
        enqueue_ready(s);
        wake_.push_back(tasks[static_cast<std::size_t>(s)].resource);
      }
    }
    for (const std::int32_t r : wake_) dispatch_resource(r);
  }

  if (executed != n) {
    if (options.allow_incomplete) {
      result.completed = false;
      result.tasks_unfinished = n - executed;
      // Pinned tasks hold unreleased allocations; leave the pools as they
      // are — the partial state is what a fault-aborted iteration looks
      // like, and callers discard it anyway.
    } else {
      ThrowDeadlock(graph, result, executed);
    }
  }

  obs::MetricsRegistry::Global().counter("sim.tasks_executed").Increment(executed);
  return result;
}

SimResult Engine::Simulate(const SoaGraph& view, const EngineOptions& options) {
  return Simulate(view.graph(), options);
}

SimResult Engine::Run(const TaskGraph& graph, const EngineOptions& options) {
  thread_local Engine engine;
  return engine.Simulate(graph, options);
}

// --- Reference engine (legacy containers, same ordering contract) ----------

namespace {

struct Completion {
  TimeSec time;
  int priority;
  TaskId task;
  bool operator>(const Completion& other) const {
    if (time != other.time) return time > other.time;
    if (priority != other.priority) return priority > other.priority;
    return task > other.task;
  }
};

/// Ready-queue ordering: (priority, id) ascending.
struct ReadyOrder {
  const TaskGraph* graph;
  bool operator()(TaskId a, TaskId b) const {
    const Task& ta = graph->task(a);
    const Task& tb = graph->task(b);
    if (ta.priority != tb.priority) return ta.priority < tb.priority;
    return a < b;
  }
};

}  // namespace

SimResult RunReferenceEngine(const TaskGraph& graph, const EngineOptions& options) {
  const int n = graph.num_tasks();
  SimResult result = MakeResultShell(graph, options);
  const auto num_resources = static_cast<int>(result.resources.size());

  // Counted here from the successor lists, not read from
  // TaskGraph::in_degree(), so the oracle does not trust the graph's own
  // count that the engine it checks starts from.
  std::vector<int> pending(static_cast<std::size_t>(n), 0);
  for (TaskId t = 0; t < n; ++t) {
    for (TaskId s : graph.successors(t)) ++pending[static_cast<std::size_t>(s)];
  }

  std::vector<const ResourceSpeedProfile*> profile_of(
      static_cast<std::size_t>(num_resources), nullptr);
  IndexProfiles(options, num_resources, profile_of);

  // Per-resource ready sets and busy flags.
  std::vector<std::set<TaskId, ReadyOrder>> ready(
      static_cast<std::size_t>(num_resources), std::set<TaskId, ReadyOrder>(ReadyOrder{&graph}));
  std::vector<TaskId> running(static_cast<std::size_t>(num_resources), kInvalidTask);

  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions;
  int executed = 0;
  TimeSec now = 0.0;
  // Resources that may be able to start a task after the current event.
  std::vector<ResourceId> wake;
  wake.reserve(8);

  auto start_task = [&](TaskId id) {
    const Task& task = graph.task(id);
    running[static_cast<std::size_t>(task.resource)] = id;
    auto& rec = result.records[static_cast<std::size_t>(id)];
    rec.id = id;
    rec.start = now;
    rec.started = true;
    const ResourceSpeedProfile* profile =
        profile_of[static_cast<std::size_t>(task.resource)];
    rec.end = profile ? FinishTime(*profile, now, task.duration) : now + task.duration;
    if (task.pool >= 0 && task.alloc_at_start > 0) {
      result.pools[static_cast<std::size_t>(task.pool)].Allocate(now, task.alloc_at_start);
    }
    if (rec.end == std::numeric_limits<TimeSec>::infinity()) {
      return;  // pinned forever; resource stays occupied
    }
    rec.executed = true;
    completions.push({rec.end, task.priority, id});
  };

  auto dispatch_resource = [&](ResourceId r) {
    auto& queue = ready[static_cast<std::size_t>(r)];
    if (running[static_cast<std::size_t>(r)] != kInvalidTask || queue.empty()) return;
    const TaskId next = *queue.begin();
    queue.erase(queue.begin());
    start_task(next);
  };

  for (TaskId t = 0; t < n; ++t) {
    if (pending[static_cast<std::size_t>(t)] == 0) {
      ready[static_cast<std::size_t>(graph.task(t).resource)].insert(t);
    }
  }
  for (ResourceId r = 0; r < num_resources; ++r) dispatch_resource(r);

  while (!completions.empty()) {
    const Completion done = completions.top();
    completions.pop();
    now = done.time;
    const Task& task = graph.task(done.task);

    ++executed;
    auto& usage = result.resources[static_cast<std::size_t>(task.resource)];
    if (usage.tasks_executed == 0) {
      usage.first_start = result.records[static_cast<std::size_t>(done.task)].start;
    }
    const TimeSec elapsed =
        profile_of[static_cast<std::size_t>(task.resource)] != nullptr
            ? done.time - result.records[static_cast<std::size_t>(done.task)].start
            : task.duration;
    usage.busy += elapsed;
    if (IsComputeKind(task.kind)) usage.compute_busy += elapsed;
    usage.last_end = now;
    usage.tasks_executed++;
    result.makespan = std::max(result.makespan, now);

    if (task.pool >= 0 && task.free_at_end > 0) {
      result.pools[static_cast<std::size_t>(task.pool)].Free(now, task.free_at_end);
    }

    running[static_cast<std::size_t>(task.resource)] = kInvalidTask;

    wake.clear();
    wake.push_back(task.resource);
    for (TaskId succ : graph.successors(done.task)) {
      if (--pending[static_cast<std::size_t>(succ)] == 0) {
        const ResourceId r = graph.task(succ).resource;
        ready[static_cast<std::size_t>(r)].insert(succ);
        wake.push_back(r);
      }
    }
    for (ResourceId r : wake) dispatch_resource(r);
  }

  if (executed != n) {
    if (options.allow_incomplete) {
      result.completed = false;
      result.tasks_unfinished = n - executed;
    } else {
      ThrowDeadlock(graph, result, executed);
    }
  }
  return result;
}

}  // namespace dapple::sim
