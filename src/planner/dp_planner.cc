#include "planner/dp_planner.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "topo/assignment.h"

namespace dapple::planner {

namespace {

/// Packs canonical allocation keys. Identical servers are interchangeable,
/// so on homogeneous clusters two allocations with the same sorted
/// per-server used counts lead to equivalent futures; on heterogeneous
/// clusters the server identity matters and the counts stay positional. A
/// key is those counts as fixed-width big-endian fields, so comparing two
/// keys byte by byte compares the counts lexicographically. Each count is
/// stored as its rank in decimal-string order: a level's nodes are
/// expanded, and so merged, in the order of their "c0,c1,...," count
/// strings, which decides latency ties and alternatives eviction, and with
/// 10 or more devices per server "10," sorts before "9,".
class KeyPacker {
 public:
  explicit KeyPacker(const topo::Cluster& cluster)
      : sorted_(cluster.homogeneous()),
        rank_(static_cast<std::size_t>(cluster.gpus_per_server()) + 1) {
    std::vector<int> by_text(rank_.size());
    std::iota(by_text.begin(), by_text.end(), 0);
    std::sort(by_text.begin(), by_text.end(),
              [](int a, int b) { return std::to_string(a) < std::to_string(b); });
    for (std::size_t r = 0; r < by_text.size(); ++r) {
      rank_[static_cast<std::size_t>(by_text[r])] = static_cast<unsigned>(r);
    }
    while (cluster.gpus_per_server() >> (8 * width_) != 0) ++width_;
    size_ = static_cast<std::size_t>(cluster.num_servers()) * width_;
  }

  /// Bytes per key.
  std::size_t size() const { return size_; }

  /// Writes the key of per-server used counts `counts` (sorted in place on
  /// homogeneous clusters) to out[0, size()).
  void Pack(std::span<int> counts, char* out) const {
    if (sorted_) std::sort(counts.begin(), counts.end());
    for (int count : counts) {
      const unsigned rank = rank_[static_cast<std::size_t>(count)];
      for (std::size_t b = width_; b-- > 0;) *out++ = static_cast<char>(rank >> (8 * b));
    }
  }

 private:
  bool sorted_;
  std::vector<unsigned> rank_;
  std::size_t width_ = 1;
  std::size_t size_ = 0;
};

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

/// Dense ids of the packed keys one search has met, so a frontier slot is
/// an array read rather than a hash of the key.
class KeyInterner {
 public:
  /// The id of `key`, taking the next one the first time the key is seen.
  int Intern(std::string_view key) {
    if (const auto it = ids_.find(key); it != ids_.end()) return it->second;
    const int id = static_cast<int>(bytes_.size());
    bytes_.push_back(ids_.emplace(std::string(key), id).first->first);
    return id;
  }

  /// The packed key of `id`.
  std::string_view bytes(int id) const { return bytes_[static_cast<std::size_t>(id)]; }

 private:
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::unordered_map<std::string, int, KeyHash, std::equal_to<>> ids_;
  /// Views of ids_' keys by id; map nodes never move, so they stay valid.
  std::vector<std::string_view> bytes_;
};

/// A frontier node at level j: the stages of its prefix are its own last
/// stage [i, j) preceded by its parent's prefix, the parent being node
/// `parent` of level i (-1 for the root, whose prefix is empty).
struct SearchNode {
  int parent = -1;
  int num_stages = 0;  // of the prefix
  StagePlan stage;
  double tpl = 0.0;  // latency of prefix + default suffix (the paper's TPL)
};

/// One DP level: its nodes, and the best node per interned canonical key.
class Level {
 public:
  int size() const { return static_cast<int>(nodes_.size()); }
  SearchNode& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }

  /// The node holding key id `key`, or nullptr.
  SearchNode* Find(int key) {
    const auto at = static_cast<std::size_t>(key);
    return at < slots_.size() && slots_[at] >= 0 ? &node(slots_[at]) : nullptr;
  }

  /// Adds a node under key id `key`, which the level must not hold yet.
  void Add(int key, SearchNode node) {
    const auto at = static_cast<std::size_t>(key);
    if (at >= slots_.size()) slots_.resize(at + 1, -1);
    slots_[at] = size();
    keys_.push_back(key);
    nodes_.push_back(std::move(node));
  }

  /// Node indices in ascending packed-key order, the order the level
  /// expands in.
  std::vector<int> KeyOrder(const KeyInterner& keys) const {
    std::vector<int> order(nodes_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return keys.bytes(keys_[static_cast<std::size_t>(a)]) <
             keys.bytes(keys_[static_cast<std::size_t>(b)]);
    });
    return order;
  }

  /// Drops what only expansion reads (the slots and keys); the stages and
  /// parent links stay for the prefixes of later levels.
  void Release() {
    slots_ = {};
    keys_ = {};
  }

 private:
  std::vector<SearchNode> nodes_;
  /// Node index by key id, -1 when the level holds no node under that key.
  std::vector<int> slots_;
  /// Key id by node index.
  std::vector<int> keys_;
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

SearchTooLarge::SearchTooLarge(long subproblems, long budget, int levels,
                               long candidates_evaluated, long frontier_peak)
    : Error("search too large: " + std::to_string(subproblems) +
            " subproblems passes the budget of " + std::to_string(budget) + " at DP level " +
            std::to_string(levels) + " (" + std::to_string(candidates_evaluated) +
            " candidates evaluated, frontier peak " + std::to_string(frontier_peak) + ")"),
      subproblems_(subproblems),
      budget_(budget),
      levels_(levels),
      candidates_evaluated_(candidates_evaluated),
      frontier_peak_(frontier_peak) {}

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
  } catch (const NoFeasiblePlan&) {
    if (options_.recompute != RecomputePolicy::kAuto) throw;
    // DawnPiper-style fallback, only when nothing fits: rerun with
    // recomputation on every stage (throws again if even that cannot fit),
    // then trim to the cheapest subset.
    obs::MetricsRegistry::Global().counter("planner.recompute_fallbacks").Increment();
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
  // Every subproblem has at least two stages, so its micro-batching is a
  // function of its widest stage alone: by_width[w], whose micro-batch size
  // is entry mbs_index[w] of the memo's list.
  std::vector<MicroBatching> by_width(static_cast<std::size_t>(num_devices) + 1);
  std::vector<int> mbs_index(by_width.size(), 0);
  std::vector<int> micro_batch_sizes;
  for (int w = 1; w <= num_devices; ++w) {
    const auto at = static_cast<std::size_t>(w);
    by_width[at] = ChooseMicroBatching(options_.global_batch_size,
                                       model_->profile_micro_batch(), w, 2);
    const auto it = std::find(micro_batch_sizes.begin(), micro_batch_sizes.end(),
                              by_width[at].micro_batch_size);
    mbs_index[at] = static_cast<int>(it - micro_batch_sizes.begin());
    if (it == micro_batch_sizes.end()) micro_batch_sizes.push_back(by_width[at].micro_batch_size);
  }
  // One row memo for the whole search, shared by every subproblem.
  StageRowMemo rows(estimator, std::move(micro_batch_sizes));
  const RowInputs& inputs = rows.inputs();

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
  std::int64_t row_lookups = 0;
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
  const KeyPacker packer(*cluster_);
  const std::size_t key_size = packer.size();
  const int num_servers = cluster_->num_servers();
  KeyInterner keys;
  std::vector<Level> frontier(static_cast<std::size_t>(num_layers));
  {
    SearchNode root{-1, 0, {}, 0.0};
    root.tpl = merge(CandidateScore{dp_est.feasible, dp_est.memory_limited, dp_est.latency,
                                    dp_est.max_peak_memory},
                     [&] { return std::pair{data_parallel, dp_est}; });
    std::vector<int> counts(static_cast<std::size_t>(num_servers), 0);
    std::string key(key_size, '\0');
    packer.Pack(counts, key.data());
    frontier[0].Add(keys.Intern(key), std::move(root));
  }

  // What expanding one node reads, derived once per node and never per
  // subproblem: its prefix (walked from its parents), the devices that
  // prefix uses, its free devices in id order, its per-server used counts,
  // each prefix stage's CompInputs index and the StageLink index between
  // consecutive prefix stages, the last prefix stage's per-server counts
  // (its link into the carved stage varies) and its widest prefix stage.
  struct Expansion {
    int node = 0;
    std::vector<StagePlan> prefix;
    topo::AllocationState state;
    std::vector<topo::DeviceId> free;
    std::vector<int> used;
    std::vector<std::size_t> comp;
    std::vector<std::size_t> link;
    std::vector<int> last;
    int widest = 1;
  };
  // The stages of node `index` of level `j`, first stage first.
  auto prefix_of = [&](int j, int index) {
    std::vector<StagePlan> stages;
    for (; index >= 0 && j > 0; j = stages.back().layer_begin) {
      const SearchNode& n = frontier[static_cast<std::size_t>(j)].node(index);
      stages.push_back(n.stage);
      index = n.parent;
    }
    std::reverse(stages.begin(), stages.end());
    return stages;
  };
  // Node `index` of level `j` as its expansion reads it. Nodes hold no
  // device state: committing the prefix's stages rebuilds it (Commit
  // rejects overlapping stages), and the prefix with a last stage on every
  // free device is validated as a plan, which covers every subproblem's
  // prefix, since each one only splits the free devices in two.
  auto walk = [&](int j, int index) {
    Expansion expansion{index, prefix_of(j, index), topo::AllocationState(*cluster_), {}, {},
                        {}, {}, {}, 1};
    for (const StagePlan& stage : expansion.prefix) expansion.state.Commit(stage.devices);
    const topo::AllocationState& state = expansion.state;
    expansion.free.reserve(static_cast<std::size_t>(state.num_free()));
    for (topo::DeviceId d = 0; d < num_devices; ++d) {
      if (!state.is_used(d)) expansion.free.push_back(d);
    }
    for (int srv = 0; srv < num_servers; ++srv) {
      expansion.used.push_back(state.used_on_server(srv));
    }
    {
      ParallelPlan check;
      check.model = model_->name();
      check.stages = expansion.prefix;
      check.stages.push_back(StagePlan{j, num_layers, topo::DeviceSet(expansion.free),
                                        topo::PlacementPolicy::kFreshFirst, false});
      check.Validate(*model_);
    }
    for (const StagePlan& stage : expansion.prefix) {
      const std::vector<int> counts = stage.devices.PerServerCounts(*cluster_);
      expansion.comp.push_back(inputs.Comp(counts));
      if (!expansion.last.empty()) expansion.link.push_back(inputs.Link(expansion.last, counts));
      expansion.last = counts;
      expansion.widest = std::max(expansion.widest, stage.replication());
    }
    return expansion;
  };

  // One unit of parallel work: a (frontier node, device placement) pair
  // that expands every split point jp on its own. Coarser than a single
  // candidate (good cache locality: all jp share the placement's stage
  // vocabulary), finer than a frontier node (parallelism exists even at
  // level 0, where the frontier is a single root). The placement is the
  // first `size` devices of hand-out order `order`.
  struct Subproblem {
    int expansion = 0;
    int order = 0;
    int size = 0;
    topo::PlacementPolicy policy = topo::PlacementPolicy::kFreshFirst;
  };
  const std::vector<topo::PlacementPolicy>& policy_set =
      options_.policies.empty() ? topo::AllPlacementPolicies() : options_.policies;

  // A level is expanded in batches of consecutive nodes with about this
  // many subproblems (a batch ends on a node boundary). Batching changes
  // nothing but memory: a level of a large cluster holds millions of
  // subproblems, and only one batch's hand-out orders, device sets and
  // scores are alive (and, under a budget, the level's node walks).
  constexpr std::size_t kBatch = 1 << 14;
  // A batch's scores, the score of split point j + 1 + i of subproblem s at
  // s * splits + i, and its child keys; one buffer each for the search. A
  // split's plan and full estimate are rebuilt only if the merge needs them.
  std::vector<CandidateScore> scores;
  std::string child_keys;

  for (int j = 0; j < num_layers; ++j) {
    Level& level = frontier[static_cast<std::size_t>(j)];
    if (level.size() == 0) continue;
    ++best.stats.levels;
    best.stats.frontier_peak = std::max<long>(best.stats.frontier_peak, level.size());
    auto phase_clock = std::chrono::steady_clock::now();
    auto lap = [&phase_clock] {
      const auto now = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(now - phase_clock).count();
      phase_clock = now;
      return s;
    };

    // Pruning reads the incumbent only here, before the level's first
    // merge, so it cannot observe mid-level merge order and stays identical
    // at every thread count.
    const bool prune = options_.prune_slack > 0.0 && best.estimate.feasible;
    const double prune_above = best.estimate.latency * options_.prune_slack;
    // The nodes that expand, in ascending key order: below the stage cap
    // and not pruned (counted in `pruned`). Nodes whose default-suffix
    // completion was infeasible (tpl = inf) must stay expandable: splitting
    // the suffix further may restore memory feasibility (this is exactly
    // how AmoebaNet-36, which cannot run data-parallel, still gets planned).
    std::vector<int> expanding;
    for (int index : level.KeyOrder(keys)) {
      const SearchNode& node = level.node(index);
      if (node.num_stages + 1 >= max_stages) continue;
      if (prune && std::isfinite(node.tpl) && node.tpl > prune_above) {
        ++pruned;
        continue;
      }
      expanding.push_back(index);
    }
    // Appends the hand-out orders of a node with `state` to `orders` and
    // calls place(order index, m, policy) for each of its placements in
    // canonical order: size m, then policy, duplicates dropped. Each policy
    // hands the devices out in at most two orders (the one for size 1 and,
    // if it stops short, the one for every larger size), and a size-m
    // placement is a prefix of one; two policies place alike at m when
    // their orders share their first m devices.
    auto placements = [&](const topo::AllocationState& state,
                          std::vector<std::vector<topo::DeviceId>>& orders, auto&& place) {
      const int free_devices = state.num_free();
      struct PolicyOrders {
        topo::PlacementPolicy policy;
        std::size_t small = 0;  // order index for sizes up to its length
        std::size_t large = 0;  // order index for larger sizes
      };
      const std::size_t first = orders.size();
      std::vector<PolicyOrders> policy_orders;
      for (topo::PlacementPolicy policy : policy_set) {
        PolicyOrders po{policy, orders.size(), orders.size()};
        orders.push_back(state.PlanOrder(policy, 1));
        const auto covered = static_cast<int>(orders.back().size());
        if (covered < free_devices) {
          po.large = orders.size();
          orders.push_back(state.PlanOrder(policy, covered + 1));
        }
        policy_orders.push_back(po);
      }
      // Common prefix lengths of the node's orders, pairwise.
      const std::size_t count = orders.size() - first;
      std::vector<std::size_t> common(count * count, 0);
      for (std::size_t a = 0; a < count; ++a) {
        for (std::size_t b = 0; b < a; ++b) {
          const auto& x = orders[first + a];
          const auto& y = orders[first + b];
          const auto n = static_cast<std::ptrdiff_t>(std::min(x.size(), y.size()));
          const auto lcp =
              static_cast<std::size_t>(std::mismatch(x.begin(), x.begin() + n, y.begin()).first -
                                       x.begin());
          common[a * count + b] = lcp;
          common[b * count + a] = lcp;
        }
      }
      std::vector<std::size_t> placed;  // order indices taken at the current size
      for (int m = 1; m < free_devices; ++m) {
        placed.clear();
        for (const PolicyOrders& po : policy_orders) {
          const std::size_t order =
              static_cast<std::size_t>(m) <= orders[po.small].size() ? po.small : po.large;
          if (std::any_of(placed.begin(), placed.end(), [&](std::size_t other) {
                return common[(order - first) * count + (other - first)] >=
                       static_cast<std::size_t>(m);
              })) {
            continue;
          }
          placed.push_back(order);
          place(static_cast<int>(order), m, po.policy);
        }
      }
    };
    // The budget is checked before the level evaluates anything: a counting
    // pass walks the expanding nodes and enumerates their placements,
    // storing none of them. It keeps the walks, so phase 1 reads each
    // node's walk rather than repeating it.
    std::vector<std::vector<topo::DeviceId>> orders;
    std::vector<Expansion> walked;
    if (options_.max_subproblems > 0) {
      long enumerated = best.stats.subproblems;
      for (int index : expanding) {
        walked.push_back(walk(j, index));
        orders.clear();
        placements(walked.back().state, orders, [&](int, int, topo::PlacementPolicy) {
          if (++enumerated > options_.max_subproblems) {
            throw SearchTooLarge(enumerated, options_.max_subproblems, best.stats.levels,
                                 evaluated, best.stats.frontier_peak);
          }
        });
      }
    }

    // Every subproblem of this level scores the same split points (j, L).
    const auto splits = static_cast<std::size_t>(num_layers - j - 1);
    std::size_t level_expansions = 0;
    std::vector<Expansion> expansions;
    std::vector<Subproblem> subproblems;
    const int gpus_per_server = cluster_->gpus_per_server();
    for (std::size_t next = 0; next < expanding.size();) {
      // Phase 1 (sequential, cheap): the next batch's subproblems, in the
      // canonical order: node (key order) -> size m -> deduped policy.
      expansions.clear();
      orders.clear();
      subproblems.clear();
      while (next < expanding.size() && subproblems.size() < kBatch) {
        const auto expansion_index = static_cast<int>(expansions.size());
        // Under a budget, `walked` holds every expanding node's walk.
        expansions.push_back(walked.empty() ? walk(j, expanding[next])
                                            : std::move(walked[next]));
        ++next;
        placements(expansions.back().state, orders,
                   [&](int order, int m, topo::PlacementPolicy policy) {
                     subproblems.push_back(Subproblem{expansion_index, order, m, policy});
                   });
      }
      best.stats.subproblems += static_cast<long>(subproblems.size());
      best.stats.enumerate_seconds += lap();
      const std::size_t size = subproblems.size();
      // A batch overwrites each score it reads, so a larger buffer frees
      // the old one first rather than copying it.
      if (scores.size() < size * splits) {
        std::vector<CandidateScore>().swap(scores);
        scores.resize(size * splits);
      }
      child_keys.resize(size * key_size);

      // Phase 2 (parallel, hot): each subproblem takes the per-server
      // counts of its placement from the hand-out order and those of its
      // free devices from the node's, packs its child's key, and scores all
      // of its split points in one pass from its stage-cost rows. Only jp
      // varies inside one; the prefix, both device counts, the stage count
      // and the widest stage (so the micro-batching) are fixed, and
      // ScoreSplits does that fixed work once. Results land in the
      // subproblem's own slots; apart from the row memo (pure values),
      // nothing here reads or writes search-global state.
      pool.ParallelFor(size, [&](std::size_t s) {
        const Subproblem& sub = subproblems[s];
        const Expansion& node = expansions[static_cast<std::size_t>(sub.expansion)];
        const std::vector<topo::DeviceId>& order = orders[static_cast<std::size_t>(sub.order)];
        // Per-thread scratch: per-server counts of the carved devices, of the
        // free ones and of the child's used ones, and the prefix's entries.
        thread_local std::vector<int> carved_counts;
        thread_local std::vector<int> free_counts;
        thread_local std::vector<int> child_counts;
        thread_local std::vector<RowEntry> prefix_entries;
        carved_counts.assign(static_cast<std::size_t>(num_servers), 0);
        free_counts.resize(static_cast<std::size_t>(num_servers));
        child_counts.resize(static_cast<std::size_t>(num_servers));
        for (auto d = order.begin(); d != order.begin() + sub.size; ++d) {
          ++carved_counts[static_cast<std::size_t>(*d / gpus_per_server)];
        }
        int free_devices = 0;
        bool fits = true;
        for (std::size_t srv = 0; srv < carved_counts.size(); ++srv) {
          child_counts[srv] = node.used[srv] + carved_counts[srv];
          free_counts[srv] = gpus_per_server - child_counts[srv];
          fits = fits && free_counts[srv] >= 0;
          free_devices += free_counts[srv];
        }
        DAPPLE_CHECK(fits && sub.size + free_devices == static_cast<int>(node.free.size()))
            << "a placement must split the node's free devices";
        if (splits == 0) return;  // no split point left
        packer.Pack(child_counts, child_keys.data() + s * key_size);

        const int widest = std::max({node.widest, sub.size, free_devices});
        const StageRowMemo::Rows at = rows.At(mbs_index[static_cast<std::size_t>(widest)]);
        const std::size_t n = node.prefix.size();
        prefix_entries.clear();
        for (std::size_t i = 0; i < n; ++i) {
          const StagePlan& stage = node.prefix[i];
          const auto x = static_cast<std::size_t>(stage.layer_end);
          prefix_entries.push_back(at.Begin(stage.layer_begin, stage.recompute, node.comp[i])[x]);
          prefix_entries.push_back(
              at.Comm(i + 1 < n ? node.link[i] : inputs.Link(node.last, carved_counts))[x]);
        }
        estimator.ScoreSplits(
            {node.prefix, prefix_entries, sub.size, recompute_all, free_devices, recompute_all,
             at.Begin(j, recompute_all, inputs.Comp(carved_counts)),
             at.Comm(inputs.Link(carved_counts, free_counts)),
             at.End(recompute_all, inputs.Comp(free_counts))},
            by_width[static_cast<std::size_t>(widest)],
            std::span(scores).subspan(s * splits, splits));
      });
      best.stats.evaluate_seconds += lap();
      level_expansions += size * splits;

      // Phase 3 (sequential, deterministic): merge in enumeration order —
      // subproblem order, then jp ascending — identical outcomes to the
      // single-threaded search. A subproblem's child key is interned once;
      // each split's frontier slot is then an array read. A candidate's
      // plan and estimate are built only when it can enter `best` or the
      // alternatives, its carved device set only when it or its child node
      // is, and its child node only when the child takes its frontier slot.
      for (std::size_t s = 0; s < size && splits > 0; ++s) {
        const Subproblem& sub = subproblems[s];
        const Expansion& node = expansions[static_cast<std::size_t>(sub.expansion)];
        row_lookups += static_cast<std::int64_t>(2 * node.prefix.size() + 3);
        const std::vector<topo::DeviceId>& order = orders[static_cast<std::size_t>(sub.order)];
        std::optional<topo::DeviceSet> devices;
        auto carved_devices = [&]() -> const topo::DeviceSet& {
          if (!devices) {
            devices.emplace(std::vector<topo::DeviceId>(order.begin(), order.begin() + sub.size));
          }
          return *devices;
        };
        const int key = keys.Intern(std::string_view(child_keys.data() + s * key_size, key_size));
        for (std::size_t i = 0; i < splits; ++i) {
          const int jp = j + 1 + static_cast<int>(i);
          const double tpl = merge(scores[s * splits + i], [&] {
            // The node's prefix, the carved stage [j, jp) and the default
            // suffix [jp, L) on the devices the carved stage leaves free.
            const topo::DeviceSet& carved = carved_devices();
            std::vector<topo::DeviceId> rest;
            for (topo::DeviceId d : node.free) {
              if (!carved.contains(d)) rest.push_back(d);
            }
            ParallelPlan plan;
            plan.model = model_->name();
            plan.stages = node.prefix;
            plan.stages.push_back(StagePlan{j, jp, carved, sub.policy, recompute_all});
            plan.stages.push_back(StagePlan{jp, num_layers, topo::DeviceSet(std::move(rest)),
                                            topo::PlacementPolicy::kFreshFirst, recompute_all});
            PlanEstimate est = estimator.Estimate(plan, options_.global_batch_size);
            return std::pair{std::move(plan), std::move(est)};
          });
          Level& child_level = frontier[static_cast<std::size_t>(jp)];
          SearchNode* slot = child_level.Find(key);
          if (slot == nullptr || tpl < slot->tpl) {
            SearchNode child{node.node, static_cast<int>(node.prefix.size()) + 1,
                             StagePlan{j, jp, carved_devices(), sub.policy, recompute_all}, tpl};
            if (slot == nullptr) {
              child_level.Add(key, std::move(child));
            } else {
              *slot = std::move(child);
            }
          }
        }
      }
      best.stats.merge_seconds += lap();
    }
    {
      auto& metrics = obs::MetricsRegistry::Global();
      metrics.counter("planner.estimator_calls")
          .Increment(static_cast<std::int64_t>(level_expansions));
      metrics.histogram("planner.level_expansions")
          .Observe(static_cast<double>(level_expansions));
    }
    // The search only moves forward: later levels read this one's nodes
    // only for their stages and parents.
    level.Release();
  }

  best.alternatives.reserve(alternatives.size());
  for (Alternative& alt : alternatives) {
    best.alternatives.emplace_back(std::move(alt.plan), alt.estimate);
  }

  best.stats.candidates_evaluated = evaluated;
  best.stats.candidates_pruned = pruned;
  best.stats.memory_rejected = memory_rejected;
  // Each key is filled exactly once, so the misses are the rows at every
  // thread count.
  const StageRowMemo::Stats totals = rows.TotalStats();
  best.stats.cache_hits = row_lookups - totals.rows;
  best.stats.cache_misses = totals.rows;
  best.stats.cache_entries = totals.rows;
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
    throw NoFeasiblePlan(os.str());
  }
  return best;
}

}  // namespace dapple::planner
