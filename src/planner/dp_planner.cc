#include "planner/dp_planner.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

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
  DAPPLE_CHECK_GE(options_.num_threads, 0) << "negative planner thread count";
}

PlanEstimate DapplePlanner::Evaluate(const ParallelPlan& plan) const {
  return LatencyEstimator(*model_, *cluster_, options_.latency)
      .Estimate(plan, options_.global_batch_size);
}

PlanResult DapplePlanner::Plan() const {
  PlanResult result;
  try {
    // Auto tries without recomputation first — it is latency-free and most
    // instances fit.
    result = Search(options_.recompute == RecomputePolicy::kAll);
  } catch (const Error&) {
    if (options_.recompute != RecomputePolicy::kAuto) throw;
    // DawnPiper-style fallback, only when nothing fits: rerun with
    // recomputation on every stage (throws again if even that cannot fit),
    // then trim to the cheapest subset.
    result = Search(true);
    const LatencyEstimator estimator(*model_, *cluster_, options_.latency);
    int probes = MinimizeRecompute(estimator, result.plan, result.estimate);
    int recompute_stages = 0;
    for (const StagePlan& s : result.plan.stages) recompute_stages += s.recompute ? 1 : 0;
    // The alternatives feed the Session's simulator re-ranking; give each
    // the same per-stage treatment so they stay comparable (and still fit).
    for (auto& [alt_plan, alt_est] : result.alternatives) {
      probes += MinimizeRecompute(estimator, alt_plan, alt_est);
    }
    result.stats.recompute_stages = recompute_stages;
    result.stats.fit_probes = probes;
    DAPPLE_LOG_INFO << "memory-cap fit: " << recompute_stages << "/"
                    << result.plan.num_stages() << " stages recompute (" << probes
                    << " fit probes)";
  }
  if (result.stats.memory_cap > 0) {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.counter("planner.cap.recompute_stages").Increment(result.stats.recompute_stages);
    metrics.counter("planner.cap.fit_probes").Increment(result.stats.fit_probes);
  }
  return result;
}

int DapplePlanner::MinimizeRecompute(const LatencyEstimator& estimator,
                                     ParallelPlan& plan, PlanEstimate& estimate) const {
  const int S = plan.num_stages();
  // Latency penalty of checkpointing stage s is the replayed forward:
  // kRecomputeOverhead x F_s. Cheapest stages first, ties by stage index.
  std::vector<TimeSec> penalty(static_cast<std::size_t>(S), 0.0);
  for (const StageCost& sc : estimate.stages) {
    if (!sc.is_comm && sc.comp_index >= 0 && sc.comp_index < S) {
      penalty[static_cast<std::size_t>(sc.comp_index)] =
          runtime::kRecomputeOverhead * sc.forward;
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

PlanResult DapplePlanner::Search(bool recompute_all) const {
  const auto search_start = std::chrono::steady_clock::now();
  const int num_layers = model_->num_layers();
  const int num_devices = cluster_->num_devices();
  const int max_stages =
      options_.max_stages > 0 ? options_.max_stages : num_devices;
  DAPPLE_CHECK_GT(num_devices, 0);

  const LatencyOptions& latency = options_.latency;
  const LatencyEstimator estimator(*model_, *cluster_, latency);
  // One row memo for the whole search, shared by every subproblem.
  StageRowMemo rows(estimator);

  // 0 = the shared pool, 1 = inline on this thread, n = a pool of n.
  std::optional<ThreadPool> local;
  ThreadPool& pool = options_.num_threads == 0
                         ? ThreadPool::Shared()
                         : local.emplace(static_cast<std::size_t>(options_.num_threads));

  PlanResult best;
  best.estimate.feasible = false;
  best.estimate.latency = std::numeric_limits<TimeSec>::infinity();
  best.stats.threads = static_cast<int>(pool.num_threads());
  best.stats.memory_cap = latency.memory_cap;
  // The peak of the last memory-infeasible candidate, for the error message.
  std::optional<Bytes> last_infeasible_peak;
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
  // Fast reject: a candidate strictly worse than the current k-th best can
  // never enter the list, so it needs neither a plan nor a signature. Ties
  // pass so eviction order (and with it every downstream artifact) is
  // bit-identical to the unoptimized code. This runs once per feasible
  // candidate — millions per search.
  auto may_enter_alternatives = [&](TimeSec latency) {
    return options_.keep_alternatives > 0 &&
           !(static_cast<int>(alternatives.size()) >= options_.keep_alternatives &&
             latency > alternatives.back().estimate.latency);
  };
  auto record_candidate = [&](const ParallelPlan& plan, const PlanEstimate& est) {
    std::string sig = PlanSignature(plan);
    if (!alternative_sigs.insert(sig).second) return;
    alternatives.push_back({plan, est, std::move(sig)});
    std::sort(alternatives.begin(), alternatives.end(), [](const auto& a, const auto& b) {
      return a.estimate.latency < b.estimate.latency;
    });
    while (static_cast<int>(alternatives.size()) > options_.keep_alternatives) {
      alternative_sigs.erase(alternatives.back().sig);
      alternatives.pop_back();
    }
  };

  // Sequential merge of an evaluated candidate into the incumbent state.
  // This is the ONLY code that touches `best`/`alternatives`, and it runs
  // in the exact enumeration order of the serial search — determinism
  // across thread counts by construction. `materialize` builds the
  // candidate's plan, called only when the candidate can enter `best` or
  // the alternatives, and returns it with its full estimate, which must
  // agree with the row-based score bit for bit (a row key missing an input
  // of the estimate would show here first). Returns the candidate's TPL
  // (inf when infeasible).
  auto merge = [&](const CandidateScore& score, auto&& materialize) -> double {
    ++evaluated;
    if (!score.feasible) {
      if (score.memory_limited) ++memory_rejected;
      last_infeasible_peak = score.peak;
      return std::numeric_limits<double>::infinity();
    }
    const bool improves = score.latency < best.estimate.latency || !best.estimate.feasible;
    const bool may_rank = may_enter_alternatives(score.latency);
    if (improves || may_rank) {
      auto [plan, est] = materialize();
      DAPPLE_CHECK(est.feasible == score.feasible &&
                   est.memory_limited == score.memory_limited &&
                   std::bit_cast<std::uint64_t>(est.latency) ==
                       std::bit_cast<std::uint64_t>(score.latency) &&
                   est.max_peak_memory == score.peak)
          << "row-based score of " << plan.ToString() << " disagrees with its estimate";
      if (may_rank) record_candidate(plan, est);
      if (improves) {
        best.plan = std::move(plan);
        best.estimate = std::move(est);
      }
    }
    return score.latency;
  };

  // Pure data parallelism: the root's default-suffix completion, and the
  // baseline pinned into the alternatives after the search. One estimate
  // serves both.
  ParallelPlan data_parallel;
  data_parallel.model = model_->name();
  data_parallel.stages.push_back(StagePlan{0, num_layers, topo::DeviceSet::Range(0, num_devices),
                                           topo::PlacementPolicy::kFreshFirst, recompute_all});
  const PlanEstimate dp_est = estimator.Estimate(data_parallel, options_.global_batch_size);

  // Level-by-level DP: frontier[j] holds the best node per canonical
  // allocation key whose prefix covers layers [0, j).
  std::vector<std::map<std::string, SearchNode>> frontier(
      static_cast<std::size_t>(num_layers));
  {
    SearchNode root{{}, topo::AllocationState(*cluster_), 0.0};
    root.tpl = merge(CandidateScore{dp_est.feasible, dp_est.memory_limited, dp_est.latency,
                                    dp_est.max_peak_memory},
                     [&] { return std::pair{data_parallel, dp_est}; });
    frontier[0].emplace(CanonicalKey(root.state), std::move(root));
  }

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
    topo::AllocationState child_state;  // node's state with `devices` committed
    std::string child_key;              // CanonicalKey of child_state
    topo::DeviceSet free;               // devices the default suffix runs on
    // Filled by the parallel phase: the score of split point j + 1 + i at
    // index i. A split's plan and full estimate are rebuilt from the
    // subproblem only if the merge needs them.
    std::vector<CandidateScore> scores;
  };

  // The stage a subproblem carves at split point jp.
  auto carved_stage = [&](const Subproblem& sub, int jp) {
    return StagePlan{sub.j, jp, sub.devices, sub.policy, recompute_all};
  };
  // The complete candidate for split point jp: the node's prefix, the
  // carved stage [j, jp) and the default suffix [jp, L) on every free
  // device.
  auto build_completed = [&](const Subproblem& sub, int jp) {
    ParallelPlan plan;
    plan.model = model_->name();
    plan.stages.reserve(sub.node->prefix.size() + 2);
    plan.stages = sub.node->prefix;
    plan.stages.push_back(carved_stage(sub, jp));
    plan.stages.push_back(StagePlan{jp, num_layers, sub.free,
                                    topo::PlacementPolicy::kFreshFirst, recompute_all});
    return plan;
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
          subproblems.push_back(Subproblem{&node, j, std::move(placements[p]),
                                           placement_policies[p], node.state, {}, {}, {}});
        }
      }
    }
    best.stats.subproblems += static_cast<long>(subproblems.size());
    best.stats.enumerate_seconds += lap();

    // Phase 2 (parallel, hot): each subproblem scores all of its split
    // points in one pass from its stage-cost rows. Only jp varies inside
    // one; the prefix, both device sets, the stage count and every
    // replication factor (so the micro-batching) are fixed, and
    // ScoreSplits does that fixed work once. Results land in the
    // subproblem's own slot; apart from the row memo (pure values), nothing
    // here reads or writes search-global state.
    pool.ParallelFor(subproblems.size(), [&](std::size_t s) {
      Subproblem& sub = subproblems[s];
      sub.child_state.Commit(sub.devices);
      sub.child_key = CanonicalKey(sub.child_state);
      std::vector<topo::DeviceId> free;
      for (topo::DeviceId d = 0; d < num_devices; ++d) {
        if (!sub.child_state.is_used(d)) free.push_back(d);
      }
      sub.free = topo::DeviceSet(std::move(free));
      if (sub.j + 1 >= num_layers) return;  // no split point left

      const ParallelPlan first = build_completed(sub, sub.j + 1);
      const SplitEntries entries(
          rows, first, estimator.ChooseMicroBatchSize(first, options_.global_batch_size));
      sub.scores = estimator.ScoreSplits(first, options_.global_batch_size, entries.prefix(),
                                         entries.carved(), entries.boundary(),
                                         entries.suffix());
    });
    best.stats.evaluate_seconds += lap();
    {
      std::size_t level_expansions = 0;
      for (const Subproblem& sub : subproblems) level_expansions += sub.scores.size();
      auto& metrics = obs::MetricsRegistry::Global();
      metrics.counter("planner.estimator_calls")
          .Increment(static_cast<std::int64_t>(level_expansions));
      metrics.histogram("planner.level_expansions")
          .Observe(static_cast<double>(level_expansions));
    }

    // Phase 3 (sequential, deterministic): merge in enumeration order —
    // subproblem order, then jp ascending — identical outcomes to the
    // single-threaded search. A candidate's plan and estimate are built
    // only when it can enter `best` or the alternatives, and its child node
    // only when it takes its frontier slot.
    for (Subproblem& sub : subproblems) {
      for (std::size_t i = 0; i < sub.scores.size(); ++i) {
        const int jp = sub.j + 1 + static_cast<int>(i);
        const double tpl = merge(sub.scores[i], [&] {
          ParallelPlan plan = build_completed(sub, jp);
          PlanEstimate est = estimator.Estimate(plan, options_.global_batch_size);
          return std::pair{std::move(plan), std::move(est)};
        });
        auto& level = frontier[static_cast<std::size_t>(jp)];
        auto it = level.find(sub.child_key);
        if (it == level.end() || tpl < it->second.tpl) {
          SearchNode child{sub.node->prefix, sub.child_state, tpl};
          child.prefix.push_back(carved_stage(sub, jp));
          level.insert_or_assign(sub.child_key, std::move(child));
        }
      }
    }
    // Free processed level early; the search only moves forward.
    level_nodes.clear();
    best.stats.merge_seconds += lap();
  }

  best.candidates_evaluated = evaluated;
  best.alternatives.reserve(alternatives.size());
  for (Alternative& alt : alternatives) {
    best.alternatives.emplace_back(std::move(alt.plan), alt.estimate);
  }

  best.stats.candidates_evaluated = evaluated;
  best.stats.candidates_pruned = pruned;
  best.stats.memory_rejected = memory_rejected;
  const StageRowMemo::Stats totals = rows.TotalStats();
  best.stats.cache_hits = totals.hits;
  best.stats.cache_misses = totals.misses;
  best.stats.cache_entries = totals.entries;
  best.stats.cache_compute_seconds = totals.fill_seconds;
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
  if (recompute_all) best.stats.recompute_stages = best.plan.num_stages();

  // Pin the pure data-parallel plan into the alternatives (appended past
  // the top-k cut if necessary): it is the paper's universal baseline and
  // the simulator re-ranking should always get to veto in its favour.
  if (options_.keep_alternatives > 0 && best.estimate.feasible && dp_est.feasible) {
    bool present = false;
    for (const auto& [p, e] : best.alternatives) {
      (void)e;
      if (p.IsDataParallel()) {
        present = true;
        break;
      }
    }
    if (!present) best.alternatives.emplace_back(std::move(data_parallel), dp_est);
  }

  if (!best.estimate.feasible) {
    std::ostringstream os;
    os << "no feasible plan for " << model_->name() << " on " << cluster_->name() << " ("
       << num_devices << " devices)";
    if (latency.memory_cap > 0) {
      os << " under memory cap " << FormatBytes(latency.memory_cap)
         << (recompute_all ? " with recompute" : "");
    }
    if (last_infeasible_peak) os << ": " << estimator.MemoryReason(*last_infeasible_peak);
    throw Error(os.str());
  }
  DAPPLE_LOG_INFO << "planned " << model_->name() << " on " << cluster_->name() << ": "
                  << best.plan.ToString() << " (evaluated " << evaluated << " candidates)";
  return best;
}

}  // namespace dapple::planner
