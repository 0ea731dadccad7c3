#include "planner/dp_planner.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "topo/assignment.h"

namespace dapple::planner {

namespace {

/// Canonical allocation key. Identical servers are interchangeable, so on
/// homogeneous clusters two allocations with the same sorted per-server
/// used counts lead to equivalent futures; on heterogeneous clusters the
/// server identity matters and the counts stay positional.
std::string CanonicalKey(const topo::AllocationState& state) {
  std::vector<int> counts;
  counts.reserve(static_cast<std::size_t>(state.cluster().num_servers()));
  for (int s = 0; s < state.cluster().num_servers(); ++s) {
    counts.push_back(state.used_on_server(s));
  }
  if (state.cluster().homogeneous()) {
    std::sort(counts.begin(), counts.end());
  }
  std::string key;
  for (int c : counts) {
    key += std::to_string(c);
    key += ',';
  }
  return key;
}

/// Compact identity of a plan's (layer range, device list) structure, used
/// only for dedup — raw little-endian ints, never printed. Millions of
/// candidates get one each, so formatting with to_string would be a
/// measurable share of the search.
std::string PlanSignature(const ParallelPlan& p) {
  std::string sig;
  sig.reserve(p.stages.size() * 16);
  auto put = [&sig](std::int32_t v) {
    sig.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const StagePlan& s : p.stages) {
    put(s.layer_begin);
    put(s.layer_end);
    for (topo::DeviceId d : s.devices.devices()) put(d);
    put(-1);
  }
  return sig;
}

struct SearchNode {
  std::vector<StagePlan> prefix;  // stages covering layers [0, prefix_end)
  topo::AllocationState state;
  double tpl = 0.0;  // latency of prefix + default suffix (the paper's TPL)
};

/// The stage-cost cache for one search, or null when the options disable it
/// or the cluster is past kStageCacheMaxDevices. The size cutoff counts in
/// planner.cache.disabled, so the slower uncached search is never silent.
std::unique_ptr<StageCostCache> MakeStageCache(const PlannerOptions& options,
                                               int num_devices) {
  if (!options.use_stage_cache) return nullptr;
  if (num_devices > kStageCacheMaxDevices) {
    obs::MetricsRegistry::Global().counter("planner.cache.disabled").Increment();
    return nullptr;
  }
  return std::make_unique<StageCostCache>(
      static_cast<std::size_t>(std::max(1, options.cache_shards)),
      static_cast<std::size_t>(std::max(0L, options.cache_entries_per_shard)));
}

}  // namespace

const char* ToString(RecomputePolicy policy) {
  switch (policy) {
    case RecomputePolicy::kOff: return "off";
    case RecomputePolicy::kAll: return "all";
    case RecomputePolicy::kAuto: return "auto";
  }
  return "?";
}

RecomputePolicy ParseRecomputePolicy(const std::string& text) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "off") return RecomputePolicy::kOff;
  if (lower == "all" || lower == "on") return RecomputePolicy::kAll;
  if (lower == "auto") return RecomputePolicy::kAuto;
  throw Error("unknown recompute policy '" + text + "' (off | all | auto)");
}

DapplePlanner::DapplePlanner(const model::ModelProfile& model, const topo::Cluster& cluster,
                             PlannerOptions options)
    : model_(&model), cluster_(&cluster), options_(options) {
  DAPPLE_CHECK_GT(options_.global_batch_size, 0) << "planner needs a global batch size";
}

PlanEstimate DapplePlanner::Evaluate(const ParallelPlan& plan) const {
  LatencyEstimator estimator(*model_, *cluster_, EffectiveLatencyOptions(
                                 options_.recompute == RecomputePolicy::kAll));
  return estimator.Estimate(plan, options_.global_batch_size);
}

LatencyOptions DapplePlanner::EffectiveLatencyOptions(bool recompute_all) const {
  LatencyOptions latency = options_.latency;
  if (options_.memory_cap > 0) latency.memory_cap = options_.memory_cap;
  if (recompute_all) latency.recompute = true;
  return latency;
}

PlanResult DapplePlanner::Plan() const {
  if (options_.recompute != RecomputePolicy::kAuto) {
    return Search(EffectiveLatencyOptions(options_.recompute == RecomputePolicy::kAll));
  }
  // Auto: try without recomputation first — it is latency-free and most
  // instances fit. DawnPiper-style fallback only when nothing fits.
  try {
    return Search(EffectiveLatencyOptions(false));
  } catch (const Error&) {
    // Fall through: rerun with recomputation on every stage (throws again
    // if even that cannot fit), then trim to the cheapest subset.
  }
  PlanResult result = Search(EffectiveLatencyOptions(true));
  const LatencyOptions plain = EffectiveLatencyOptions(false);
  LatencyEstimator estimator(*model_, *cluster_, plain);
  const std::unique_ptr<StageCostCache> cache =
      MakeStageCache(options_, cluster_->num_devices());
  estimator.set_stage_cache(cache.get());
  int probes = MinimizeRecompute(estimator, result.plan, result.estimate);
  int recompute_stages = 0;
  for (const StagePlan& s : result.plan.stages) recompute_stages += s.recompute ? 1 : 0;
  // The alternatives feed the Session's simulator re-ranking; give each the
  // same per-stage treatment so they stay comparable (and still fit).
  for (auto& [alt_plan, alt_est] : result.alternatives) {
    probes += MinimizeRecompute(estimator, alt_plan, alt_est);
  }
  result.stats.recompute_stages = recompute_stages;
  result.stats.fit_probes = probes;
  if (result.stats.memory_cap > 0) {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.counter("planner.cap.recompute_stages").Increment(recompute_stages);
    metrics.counter("planner.cap.fit_probes").Increment(probes);
  }
  DAPPLE_LOG_INFO << "memory-cap fit: " << recompute_stages << "/"
                  << result.plan.num_stages() << " stages recompute ("
                  << probes << " fit probes)";
  return result;
}

int DapplePlanner::MinimizeRecompute(const LatencyEstimator& estimator,
                                     ParallelPlan& plan, PlanEstimate& estimate) const {
  const int S = plan.num_stages();
  // Latency penalty of checkpointing stage s is the replayed forward:
  // recompute_overhead x F_s. Cheapest stages first, ties by stage index.
  std::vector<TimeSec> penalty(static_cast<std::size_t>(S), 0.0);
  for (const StageCost& sc : estimate.stages) {
    if (!sc.is_comm && sc.comp_index >= 0 && sc.comp_index < S) {
      penalty[static_cast<std::size_t>(sc.comp_index)] =
          estimator.options().recompute_overhead * sc.forward;
    }
  }
  std::vector<int> order(static_cast<std::size_t>(S));
  for (int i = 0; i < S; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const TimeSec pa = penalty[static_cast<std::size_t>(a)];
    const TimeSec pb = penalty[static_cast<std::size_t>(b)];
    if (pa != pb) return pa < pb;
    return a < b;
  });

  int probes = 0;
  auto estimate_prefix = [&](int k) -> PlanEstimate {
    for (int i = 0; i < S; ++i) plan.stages[static_cast<std::size_t>(i)].recompute = false;
    for (int i = 0; i < k; ++i) {
      plan.stages[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])].recompute =
          true;
    }
    ++probes;
    return estimator.Estimate(plan, options_.global_batch_size);
  };

  // Binary search the smallest feasible prefix. The predicate is monotone
  // in practice (more checkpointed stages, less stash) but not provably so
  // for single-layer stages, where the replay transient can exceed the
  // saving — the final verification probe keeps the result sound either
  // way, falling back to all-stage recomputation (known feasible: the
  // all-recompute search produced this plan).
  int lo = 0, hi = S;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (estimate_prefix(mid).feasible) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  PlanEstimate fitted = estimate_prefix(lo);
  if (!fitted.feasible && lo < S) {
    fitted = estimate_prefix(S);
  }
  estimate = fitted;
  return probes;
}

PlanResult DapplePlanner::Search(const LatencyOptions& latency) const {
  const auto search_start = std::chrono::steady_clock::now();
  const int num_layers = model_->num_layers();
  const int num_devices = cluster_->num_devices();
  const int max_stages =
      options_.max_stages > 0 ? options_.max_stages : num_devices;
  DAPPLE_CHECK_GT(num_devices, 0);

  LatencyEstimator estimator(*model_, *cluster_, latency);
  const std::unique_ptr<StageCostCache> cache = MakeStageCache(options_, num_devices);
  estimator.set_stage_cache(cache.get());

  // Thread plumbing: 0 = shared pool, 1 = serial inline, n > 1 = dedicated
  // pool. The serial path bypasses the pool entirely so single-threaded
  // callers (tests, tiny replans) pay no synchronization at all.
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;
  if (options_.num_threads == 0) {
    pool = &ThreadPool::Shared();
  } else if (options_.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.num_threads));
    pool = local_pool.get();
  }
  auto for_each = [&](std::size_t count, const std::function<void(std::size_t)>& body) {
    if (pool == nullptr) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else {
      pool->ParallelFor(count, body);
    }
  };

  PlanResult best;
  best.estimate.feasible = false;
  best.estimate.latency = std::numeric_limits<TimeSec>::infinity();
  best.stats.threads =
      pool == nullptr ? 1 : static_cast<int>(pool->num_threads());
  best.stats.memory_cap = latency.memory_cap;
  // Track the best infeasible plan too so error messages are informative.
  std::string last_infeasible;
  long evaluated = 0;
  long pruned = 0;
  long memory_rejected = 0;

  // Top-k distinct feasible candidates for simulator re-ranking. The
  // signature set mirrors `alternatives` so a merge is one set lookup, not
  // O(k) signature rebuilds of every stored alternative.
  struct Alternative {
    ParallelPlan plan;
    PlanEstimate estimate;
    std::string sig;
  };
  std::vector<Alternative> alternatives;
  std::set<std::string> alternative_sigs;
  auto record_candidate = [&](const ParallelPlan& plan, const PlanEstimate& est,
                              const std::string& sig) {
    if (options_.keep_alternatives <= 0) return;
    // Fast reject: a candidate strictly worse than the current k-th best
    // can never enter the list, so skip the copy + re-sort the slow path
    // pays. Ties fall through to the old path so eviction order (and with
    // it every downstream artifact) is bit-identical to the unoptimized
    // code. This runs once per feasible candidate — millions per search.
    if (static_cast<int>(alternatives.size()) >= options_.keep_alternatives &&
        est.latency > alternatives.back().estimate.latency) {
      return;
    }
    if (!alternative_sigs.insert(sig).second) return;
    alternatives.push_back({plan, est, sig});
    std::sort(alternatives.begin(), alternatives.end(), [](const auto& a, const auto& b) {
      return a.estimate.latency < b.estimate.latency;
    });
    while (static_cast<int>(alternatives.size()) > options_.keep_alternatives) {
      alternative_sigs.erase(alternatives.back().sig);
      alternatives.pop_back();
    }
  };

  // Builds the complete plan for a prefix: remaining layers on all free
  // devices. Pure (thread-safe); returns nullopt when no device is free.
  auto build_completed = [&](const SearchNode& node,
                             int prefix_end) -> std::optional<ParallelPlan> {
    std::vector<topo::DeviceId> free;
    for (topo::DeviceId d = 0; d < num_devices; ++d) {
      if (!node.state.is_used(d)) free.push_back(d);
    }
    if (free.empty()) return std::nullopt;
    ParallelPlan plan;
    plan.model = model_->name();
    plan.stages = node.prefix;
    StagePlan last;
    last.layer_begin = prefix_end;
    last.layer_end = num_layers;
    last.devices = topo::DeviceSet(std::move(free));
    plan.stages.push_back(std::move(last));
    return plan;
  };

  // Sequential merge of an evaluated candidate into the incumbent state.
  // This is the ONLY code that touches `best`/`alternatives`, and it runs
  // in the exact enumeration order of the serial search — determinism
  // across thread counts by construction.
  auto merge = [&](const ParallelPlan& plan, const PlanEstimate& est,
                   const std::string& sig) -> std::optional<double> {
    ++evaluated;
    if (!est.feasible) {
      if (est.memory_limited) ++memory_rejected;
      last_infeasible = est.infeasible_reason;
      return std::nullopt;
    }
    record_candidate(plan, est, sig);
    if (est.latency < best.estimate.latency || !best.estimate.feasible) {
      best.plan = plan;
      best.estimate = est;
    }
    return est.latency;
  };

  auto complete = [&](const SearchNode& node, int prefix_end) -> std::optional<double> {
    auto plan = build_completed(node, prefix_end);
    if (!plan) return std::nullopt;
    const PlanEstimate est = estimator.Estimate(*plan, options_.global_batch_size);
    return merge(*plan, est, PlanSignature(*plan));
  };

  // Level-by-level DP: frontier[j] holds the best node per canonical
  // allocation key whose prefix covers layers [0, j).
  std::vector<std::map<std::string, SearchNode>> frontier(
      static_cast<std::size_t>(num_layers));
  {
    SearchNode root{{}, topo::AllocationState(*cluster_), 0.0};
    auto tpl = complete(root, 0);
    root.tpl = tpl.value_or(std::numeric_limits<double>::infinity());
    frontier[0].emplace(CanonicalKey(root.state), std::move(root));
  }

  // One candidate expansion: carve stage [j, jp) onto the subproblem's
  // devices, completing the rest with the default suffix.
  struct Expansion {
    SearchNode child;
    int jp = 0;
    std::optional<ParallelPlan> completed;
    PlanEstimate estimate;
    std::string signature;  // precomputed off the merge thread
  };

  // One unit of parallel work: a (frontier node, device placement) pair
  // that expands every split point jp on its own. Coarser than a single
  // candidate (good cache locality: all jp share the placement's stage
  // vocabulary), finer than a frontier node (parallelism exists even at
  // level 0, where the frontier is a single root).
  struct Subproblem {
    const SearchNode* node = nullptr;
    int j = 0;
    topo::DeviceSet devices;
    topo::PlacementPolicy policy = topo::PlacementPolicy::kFreshFirst;
    std::string child_key;         // CanonicalKey of the committed state
    std::vector<Expansion> expansions;  // filled by the parallel phase
  };

  for (int j = 0; j < num_layers; ++j) {
    auto& level_nodes = frontier[static_cast<std::size_t>(j)];
    if (level_nodes.empty()) continue;
    ++best.stats.levels;
    auto phase_clock = std::chrono::steady_clock::now();
    auto lap = [&phase_clock] {
      const auto now = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(now - phase_clock).count();
      phase_clock = now;
      return s;
    };

    // Phase 1 (sequential, cheap): enumerate this level's subproblems in
    // the canonical order: node (map order) -> size m -> deduped policy.
    std::vector<Subproblem> subproblems;
    for (auto& [key, node] : level_nodes) {
      (void)key;
      if (static_cast<int>(node.prefix.size()) + 1 >= max_stages) continue;
      // Nodes whose default-suffix completion was infeasible (tpl = inf)
      // must stay expandable: splitting the suffix further may restore
      // memory feasibility (this is exactly how AmoebaNet-36, which cannot
      // run data-parallel, still gets planned). Pruning reads the incumbent
      // only here, between levels, so it cannot observe mid-level merge
      // order and stays identical at every thread count.
      if (options_.prune_slack > 0.0 && best.estimate.feasible &&
          std::isfinite(node.tpl) &&
          node.tpl > best.estimate.latency * options_.prune_slack) {
        ++pruned;
        continue;
      }
      const int free_devices = node.state.num_free();
      for (int m = 1; m < free_devices; ++m) {
        // Distinct device sets for this size; on fresh or flat clusters the
        // three policies frequently coincide.
        std::vector<topo::DeviceSet> placements;
        std::vector<topo::PlacementPolicy> placement_policies;
        const std::vector<topo::PlacementPolicy>& policy_set =
            options_.policies.empty() ? topo::AllPlacementPolicies() : options_.policies;
        for (topo::PlacementPolicy policy : policy_set) {
          auto devices = node.state.Plan(policy, m);
          if (!devices) continue;
          if (std::find(placements.begin(), placements.end(), *devices) !=
              placements.end()) {
            continue;
          }
          placements.push_back(std::move(*devices));
          placement_policies.push_back(policy);
        }
        for (std::size_t p = 0; p < placements.size(); ++p) {
          Subproblem sub;
          sub.node = &node;
          sub.j = j;
          sub.devices = std::move(placements[p]);
          sub.policy = placement_policies[p];
          subproblems.push_back(std::move(sub));
        }
      }
    }
    best.stats.subproblems += static_cast<long>(subproblems.size());
    best.stats.enumerate_seconds += lap();

    // Phase 2 (parallel, hot): each subproblem expands all of its split
    // points, estimating the completed candidates through the shared memo
    // cache. Results land in the subproblem's own slot; nothing here reads
    // or writes search-global state.
    for_each(subproblems.size(), [&](std::size_t s) {
      Subproblem& sub = subproblems[s];
      topo::AllocationState child_state = sub.node->state;
      child_state.Commit(sub.devices);
      sub.child_key = CanonicalKey(child_state);
      sub.expansions.reserve(static_cast<std::size_t>(num_layers - sub.j - 1));
      for (int jp = sub.j + 1; jp < num_layers; ++jp) {
        Expansion e{SearchNode{sub.node->prefix, child_state, 0.0}, jp, std::nullopt,
                    {}, {}};
        StagePlan stage;
        stage.layer_begin = sub.j;
        stage.layer_end = jp;
        stage.devices = sub.devices;
        stage.policy = sub.policy;
        e.child.prefix.push_back(std::move(stage));
        e.completed = build_completed(e.child, jp);
        if (e.completed) {
          e.estimate = estimator.Estimate(*e.completed, options_.global_batch_size);
          if (options_.keep_alternatives > 0) e.signature = PlanSignature(*e.completed);
        }
        sub.expansions.push_back(std::move(e));
      }
    });
    best.stats.evaluate_seconds += lap();
    {
      std::size_t level_expansions = 0;
      for (const Subproblem& sub : subproblems) level_expansions += sub.expansions.size();
      obs::MetricsRegistry::Global()
          .histogram("planner.level_expansions")
          .Observe(static_cast<double>(level_expansions));
    }

    // Phase 3 (sequential, deterministic): merge in enumeration order —
    // subproblem order, then jp ascending — identical outcomes to the
    // single-threaded search.
    for (Subproblem& sub : subproblems) {
      for (Expansion& e : sub.expansions) {
        std::optional<double> tpl;
        if (e.completed) tpl = merge(*e.completed, e.estimate, e.signature);
        e.child.tpl = tpl.value_or(std::numeric_limits<double>::infinity());
        auto& level = frontier[static_cast<std::size_t>(e.jp)];
        auto it = level.find(sub.child_key);
        if (it == level.end() || e.child.tpl < it->second.tpl) {
          level.insert_or_assign(sub.child_key, std::move(e.child));
        }
      }
    }
    // Free processed level early; the search only moves forward.
    level_nodes.clear();
    best.stats.merge_seconds += lap();

    // Tear the level's expansion storage down on the pool: millions of
    // heap-backed candidates whose destruction parallelizes as well as
    // their construction did. Destruction order is irrelevant to the
    // search state (merge already consumed every expansion), so this
    // cannot perturb determinism.
    for_each(subproblems.size(), [&subproblems](std::size_t s) {
      std::vector<Expansion>().swap(subproblems[s].expansions);
    });
    best.stats.evaluate_seconds += lap();
  }

  best.candidates_evaluated = evaluated;
  best.alternatives.reserve(alternatives.size());
  for (Alternative& alt : alternatives) {
    best.alternatives.emplace_back(std::move(alt.plan), alt.estimate);
  }

  best.stats.candidates_evaluated = evaluated;
  best.stats.candidates_pruned = pruned;
  best.stats.memory_rejected = memory_rejected;
  if (cache) {
    const CacheShardStats totals = cache->TotalStats();
    best.stats.cache_hits = totals.hits;
    best.stats.cache_misses = totals.misses;
    best.stats.cache_entries = totals.entries;
    best.stats.cache_compute_seconds = totals.compute_seconds;
    best.stats.cache_evictions = totals.evictions;
    best.stats.shards = cache->PerShardStats();
  }
  best.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - search_start)
          .count();

  {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.counter("planner.plans").Increment();
    metrics.counter("planner.candidates_evaluated").Increment(evaluated);
    metrics.counter("planner.candidates_pruned").Increment(pruned);
  }
  ExportSearchStats(best.stats);

  // Pin the pure data-parallel plan into the alternatives (appended past
  // the top-k cut if necessary): it is the paper's universal baseline and
  // the simulator re-ranking should always get to veto in its favour.
  if (options_.keep_alternatives > 0 && best.estimate.feasible) {
    ParallelPlan dp;
    dp.model = model_->name();
    StagePlan all;
    all.layer_begin = 0;
    all.layer_end = num_layers;
    all.devices = topo::DeviceSet::Range(0, num_devices);
    dp.stages.push_back(std::move(all));
    const PlanEstimate dp_est = estimator.Estimate(dp, options_.global_batch_size);
    if (dp_est.feasible) {
      bool present = false;
      for (const auto& [p, e] : best.alternatives) {
        (void)e;
        if (p.IsDataParallel()) {
          present = true;
          break;
        }
      }
      if (!present) best.alternatives.emplace_back(std::move(dp), dp_est);
    }
  }

  if (!best.estimate.feasible) {
    std::ostringstream os;
    os << "no feasible plan for " << model_->name() << " on " << cluster_->name() << " ("
       << num_devices << " devices)";
    if (latency.memory_cap > 0) {
      os << " under memory cap " << FormatBytes(latency.memory_cap)
         << (latency.recompute ? " with recompute" : "");
    }
    if (!last_infeasible.empty()) os << ": " << last_infeasible;
    throw Error(os.str());
  }
  DAPPLE_LOG_INFO << "planned " << model_->name() << " on " << cluster_->name() << ": "
                  << best.plan.ToString() << " (evaluated " << evaluated << " candidates)";
  return best;
}

}  // namespace dapple::planner
