#include "planner/dp_planner.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
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

/// Packs allocation keys. Identical servers are interchangeable, so on
/// homogeneous clusters two allocations with the same sorted per-server
/// used counts lead to equivalent futures and share a frontier key; on
/// heterogeneous clusters the server identity matters and the counts stay
/// positional, as they always do in placement-memo keys. A
/// key is those counts as fixed-width big-endian fields, so comparing two
/// keys byte by byte compares the counts lexicographically. Each count is
/// stored as its rank in decimal-string order: a level's nodes are
/// expanded, and so merged, in the order of their "c0,c1,...," count
/// strings, which decides latency ties and alternatives eviction, and with
/// 10 or more devices per server "10," sorts before "9,".
class KeyPacker {
 public:
  /// `sorted` packs the counts in ascending order rather than by server.
  KeyPacker(const topo::Cluster& cluster, bool sorted)
      : sorted_(sorted),
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

  /// Writes the key of per-server used counts `counts` (sorted in place
  /// when the packer sorts) to out[0, size()).
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

  /// The id of `key`, or -1 when it has none.
  int Find(std::string_view key) const {
    const auto it = ids_.find(key);
    return it == ids_.end() ? -1 : it->second;
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

/// Bytes of placement-memo entries a search keeps before it clears the
/// memo. Unbounded, an uncapped 64-device GNMT-16 search peaked at 280 MiB
/// with the memo and at 35 MiB without it. Its count vectors recur only a
/// level (about 12k walks) later, so no budget near the frontier's size
/// hits there; this one bounds what the misses cost.
constexpr std::size_t kPlacementMemoBytes = std::size_t{2} << 20;

/// What expanding a node reads that depends only on its per-server used
/// counts. Every policy hands a server's lowest free device out first, so
/// a node's used devices are each server's lowest (walk checks this), and
/// its free devices, hand-out orders and placements, and each placement's
/// row inputs and child key, follow from the counts. Nodes of one level
/// all have different counts; nodes of different levels share them. The
/// memo is keyed by the positional counts, packed and interned like
/// frontier keys, and fills an entry the first time a search meets them.
/// A batch's walks point into entries, so the memo is cleared (when past
/// kPlacementMemoBytes) only by Trim, between batches.
class PlacementMemo {
 public:
  /// The first `size` devices of the hand-out order at `order`, carved as
  /// the node's next stage: what its subproblem's evaluation and merge
  /// read, bar the link into it from the node's last stage.
  struct Placement {
    std::uint32_t order = 0;  // offset of the order's first device in Entry::orders
    int size = 0;
    topo::PlacementPolicy policy = topo::PlacementPolicy::kFreshFirst;
    int free_devices = 0;  // left for the default suffix
    int child_key = 0;     // interned frontier key of the child node
    std::uint32_t carved_comp = 0;    // RowInputs::Comp of the carved stage
    std::uint32_t boundary_link = 0;  // RowInputs::Link from it to the suffix
    std::uint32_t suffix_comp = 0;    // RowInputs::Comp of the suffix
  };
  struct Entry {
    std::vector<topo::DeviceId> free;  // in id order
    std::vector<topo::DeviceId> orders;  // the policies' hand-out orders, back to back
    /// In canonical order: size, then policy, duplicates dropped.
    std::vector<Placement> placements;
    /// Per-server counts of placement p's carved devices, at p * servers.
    std::vector<int> carved_counts;

    std::span<const topo::DeviceId> carved(const Placement& p) const {
      return std::span(orders).subspan(p.order, static_cast<std::size_t>(p.size));
    }
  };

  /// Child keys are packed by `frontier` and interned in `keys`.
  PlacementMemo(const topo::Cluster& cluster, std::span<const topo::PlacementPolicy> policies,
                const RowInputs& inputs, const KeyPacker& frontier, KeyInterner& keys)
      : cluster_(&cluster),
        policies_(policies),
        inputs_(&inputs),
        frontier_(&frontier),
        keys_(&keys),
        packer_(cluster, false),
        key_(packer_.size(), '\0'),
        child_key_(frontier.size(), '\0') {
    DAPPLE_CHECK(std::max(inputs.num_comp(), inputs.num_links()) <=
                 std::numeric_limits<std::uint32_t>::max())
        << "row inputs of " << cluster.num_devices() << " devices do not fit a placement";
  }

  /// The entry of per-server used counts `used`, filled if absent.
  const Entry& Get(std::span<int> used) {
    packer_.Pack(used, key_.data());
    const auto id = static_cast<std::size_t>(ids_.Intern(key_));
    if (id < entries_.size()) {
      ++hits_;
      return entries_[id];
    }
    ++fills_;
    return Fill(used);
  }

  /// The number of placements of per-server used counts `used`: its
  /// entry's, or, with no entry, a count of placements neither priced nor
  /// kept (the last level and the budget's counting pass price none).
  std::size_t Count(std::span<int> used) {
    packer_.Pack(used, key_.data());
    if (const int id = ids_.Find(key_); id >= 0) {
      ++hits_;
      return entries_[static_cast<std::size_t>(id)].placements.size();
    }
    std::size_t placements = 0;
    Enumerate(used, counted_, [&](std::size_t, int, topo::PlacementPolicy, std::span<const int>) {
      ++placements;
    });
    return placements;
  }

  /// Clears the memo if it holds more than kPlacementMemoBytes. Call only
  /// when no entry is read any more.
  void Trim() {
    if (bytes_ <= kPlacementMemoBytes) return;
    ids_ = KeyInterner();
    entries_.clear();
    bytes_ = 0;
    ++clears_;
  }

  long fills() const { return fills_; }
  long hits() const { return hits_; }
  long clears() const { return clears_; }

 private:
  /// Builds the free devices and hand-out orders of `used` into `entry`
  /// and calls visit(order offset, size, policy, carved per-server counts)
  /// for each placement, in canonical order.
  template <typename Visit>
  void Enumerate(std::span<const int> used, Entry& entry, Visit&& visit);
  const Entry& Fill(std::span<const int> used);

  const topo::Cluster* cluster_;
  std::span<const topo::PlacementPolicy> policies_;
  const RowInputs* inputs_;
  const KeyPacker* frontier_;
  KeyInterner* keys_;
  KeyPacker packer_;  // positional
  std::string key_;
  KeyInterner ids_;
  /// By interned id; a deque keeps entries in place as it grows.
  std::deque<Entry> entries_;
  std::size_t bytes_ = 0;
  long fills_ = 0;
  long hits_ = 0;
  long clears_ = 0;
  // Scratch of Enumerate, Fill and Count.
  Entry counted_;
  std::string child_key_;
  std::vector<std::size_t> order_begin_;  // of each order, and the end of the last
  std::vector<std::size_t> common_;
  std::vector<int> carved_;  // each order's running per-server counts
  std::vector<int> left_;
  std::vector<int> child_;
  std::vector<Placement> placements_;
  std::vector<int> carved_counts_;
};

// Each policy hands the devices out in at most two orders (the one for size
// 1 and, if it stops short, the one for every larger size), and a size-m
// placement is a prefix of one; two policies place alike at m when their
// orders share their first m devices.
template <typename Visit>
void PlacementMemo::Enumerate(std::span<const int> used, Entry& entry, Visit&& visit) {
  const topo::AllocationState state(*cluster_, used);
  const int free_devices = state.num_free();
  entry.free.clear();
  entry.free.reserve(static_cast<std::size_t>(free_devices));
  for (topo::DeviceId d = 0; d < cluster_->num_devices(); ++d) {
    if (!state.is_used(d)) entry.free.push_back(d);
  }
  // Order indices per policy: for sizes up to the small order's length,
  // and for larger sizes.
  struct PolicyOrders {
    topo::PlacementPolicy policy;
    std::size_t small = 0;
    std::size_t large = 0;
  };
  std::vector<PolicyOrders> policy_orders;
  entry.orders.clear();
  order_begin_.assign(1, 0);
  auto add_order = [&](std::vector<topo::DeviceId> order) {
    entry.orders.insert(entry.orders.end(), order.begin(), order.end());
    order_begin_.push_back(entry.orders.size());
    return order_begin_.size() - 2;
  };
  for (topo::PlacementPolicy policy : policies_) {
    const std::size_t small = add_order(state.PlanOrder(policy, 1));
    const auto covered = static_cast<int>(order_begin_[small + 1] - order_begin_[small]);
    const std::size_t large =
        covered < free_devices ? add_order(state.PlanOrder(policy, covered + 1)) : small;
    policy_orders.push_back(PolicyOrders{policy, small, large});
  }
  const std::size_t count = order_begin_.size() - 1;
  auto order_of = [&](std::size_t o) {
    return std::span(entry.orders).subspan(order_begin_[o], order_begin_[o + 1] - order_begin_[o]);
  };
  // Common prefix lengths of the orders, pairwise.
  common_.assign(count * count, 0);
  for (std::size_t a = 0; a < count; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      const auto x = order_of(a);
      const auto y = order_of(b);
      const std::size_t n = std::min(x.size(), y.size());
      const auto lcp =
          static_cast<std::size_t>(std::mismatch(x.begin(), x.begin() + n, y.begin()).first -
                                   x.begin());
      common_[a * count + b] = lcp;
      common_[b * count + a] = lcp;
    }
  }
  const int per = cluster_->gpus_per_server();
  const auto servers = static_cast<std::size_t>(cluster_->num_servers());
  carved_.assign(count * servers, 0);
  std::vector<std::size_t> placed;  // order indices taken at the current size
  for (int m = 1; m < free_devices; ++m) {
    const auto last = static_cast<std::size_t>(m) - 1;  // the device size m adds
    for (std::size_t o = 0; o < count; ++o) {
      const auto order = order_of(o);
      if (last < order.size()) ++carved_[o * servers + static_cast<std::size_t>(order[last] / per)];
    }
    placed.clear();
    for (const PolicyOrders& po : policy_orders) {
      const std::size_t o = static_cast<std::size_t>(m) <= order_of(po.small).size() ? po.small
                                                                                      : po.large;
      if (std::any_of(placed.begin(), placed.end(), [&](std::size_t other) {
            return common_[o * count + other] >= static_cast<std::size_t>(m);
          })) {
        continue;
      }
      placed.push_back(o);
      visit(order_begin_[o], m, po.policy,
            std::span<const int>(carved_).subspan(o * servers, servers));
    }
  }
}

const PlacementMemo::Entry& PlacementMemo::Fill(std::span<const int> used) {
  Entry& entry = entries_.emplace_back();
  const int per = cluster_->gpus_per_server();
  const auto servers = static_cast<std::size_t>(cluster_->num_servers());
  left_.resize(servers);
  child_.resize(servers);
  placements_.clear();
  carved_counts_.clear();
  Enumerate(used, entry, [&](std::size_t order, int m, topo::PlacementPolicy policy,
                             std::span<const int> carved) {
    int left_devices = 0;
    bool fits = true;
    for (std::size_t srv = 0; srv < servers; ++srv) {
      child_[srv] = used[srv] + carved[srv];
      left_[srv] = per - child_[srv];
      fits = fits && left_[srv] >= 0;
      left_devices += left_[srv];
    }
    DAPPLE_CHECK(fits && m + left_devices == static_cast<int>(entry.free.size()))
        << "a placement must split the node's free devices";
    frontier_->Pack(child_, child_key_.data());
    placements_.push_back(Placement{static_cast<std::uint32_t>(order), m, policy, left_devices,
                                    keys_->Intern(child_key_),
                                    static_cast<std::uint32_t>(inputs_->Comp(carved)),
                                    static_cast<std::uint32_t>(inputs_->Link(carved, left_)),
                                    static_cast<std::uint32_t>(inputs_->Comp(left_))});
    carved_counts_.insert(carved_counts_.end(), carved.begin(), carved.end());
  });
  entry.placements.assign(placements_.begin(), placements_.end());
  entry.carved_counts.assign(carved_counts_.begin(), carved_counts_.end());
  bytes_ += sizeof(Entry) + sizeof(std::string) + key_.size() +
            (entry.free.capacity() + entry.orders.capacity() + entry.carved_counts.capacity()) *
                sizeof(topo::DeviceId) +
            entry.placements.capacity() * sizeof(Placement);
  return entry;
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
  const KeyPacker packer(*cluster_, cluster_->homogeneous());
  const int num_servers = cluster_->num_servers();
  const auto servers = static_cast<std::size_t>(num_servers);
  const int gpus_per_server = cluster_->gpus_per_server();
  KeyInterner keys;
  std::vector<Level> frontier(static_cast<std::size_t>(num_layers));
  {
    SearchNode root{-1, 0, {}, 0.0};
    root.tpl = merge(CandidateScore{dp_est.feasible, dp_est.memory_limited, dp_est.latency,
                                    dp_est.max_peak_memory},
                     [&] { return std::pair{data_parallel, dp_est}; });
    std::vector<int> counts(servers, 0);
    std::string key(packer.size(), '\0');
    packer.Pack(counts, key.data());
    frontier[0].Add(keys.Intern(key), std::move(root));
  }
  const std::vector<topo::PlacementPolicy>& policy_set =
      options_.policies.empty() ? topo::AllPlacementPolicies() : options_.policies;
  PlacementMemo memo(*cluster_, policy_set, inputs, packer, keys);

  // What expanding one node reads of its own prefix, derived once per node
  // and never per subproblem; the rest is its placement-memo entry. A
  // batch's walks share per-search scratch, reused batch after batch: walk
  // w's prefix stages (pointers into the frontier, first stage first), each
  // stage's CompInputs index and the StageLink index into the next stage
  // sit at [first, first + stages) of the flat vectors, and its last
  // stage's per-server counts (its link into the carved stage varies) at
  // w * servers of walk_last.
  struct Walk {
    int node = 0;
    const PlacementMemo::Entry* entry = nullptr;
    std::size_t first = 0;
    std::size_t stages = 0;
    int widest = 1;  // widest prefix stage
  };
  std::vector<Walk> walks;
  std::vector<const StagePlan*> walk_stages;
  std::vector<std::size_t> walk_comp;
  std::vector<std::size_t> walk_link;
  std::vector<int> walk_last;
  std::vector<int> used(servers);
  std::vector<int> counts(servers);
  std::vector<int> previous(servers);
  std::vector<std::uint64_t> taken((static_cast<std::size_t>(num_devices) + 63) / 64);
  auto clear_walks = [&] {
    walks.clear();
    walk_stages.clear();
    walk_comp.clear();
    walk_link.clear();
    walk_last.clear();
  };
  // Walks node `index` of level `j` from its parents. Nodes hold no device
  // state: the walk checks what a plan of the prefix and a last stage on
  // every free device must hold (contiguous non-empty stages, no device in
  // two stages, free devices left), which covers every subproblem's prefix,
  // since each one only splits the free devices in two. It also checks that
  // each server's used devices are its lowest, the invariant the placement
  // memo's key rests on.
  auto walk = [&](int j, int index) -> Walk& {
    Walk w{index, nullptr, walk_stages.size(), 0, 1};
    for (int at = j; at > 0;) {
      const SearchNode& n = frontier[static_cast<std::size_t>(at)].node(index);
      walk_stages.push_back(&n.stage);
      index = n.parent;
      at = n.stage.layer_begin;
    }
    std::reverse(walk_stages.begin() + static_cast<std::ptrdiff_t>(w.first), walk_stages.end());
    w.stages = walk_stages.size() - w.first;
    std::fill(taken.begin(), taken.end(), 0);
    std::fill(used.begin(), used.end(), 0);
    std::fill(previous.begin(), previous.end(), 0);
    int expected_begin = 0;
    for (std::size_t i = w.first; i < walk_stages.size(); ++i) {
      const StagePlan& stage = *walk_stages[i];
      DAPPLE_CHECK(stage.layer_begin == expected_begin && stage.layer_end > stage.layer_begin &&
                   !stage.devices.empty())
          << "prefix stage [" << stage.layer_begin << ", " << stage.layer_end
          << ") is not the next non-empty stage";
      std::fill(counts.begin(), counts.end(), 0);
      for (topo::DeviceId d : stage.devices.devices()) {
        DAPPLE_CHECK(d >= 0 && d < num_devices) << "device G" << d << " is not in the cluster";
        std::uint64_t& word = taken[static_cast<std::size_t>(d) / 64];
        const std::uint64_t bit = std::uint64_t{1} << (d % 64);
        DAPPLE_CHECK((word & bit) == 0) << "device G" << d << " in two stages";
        word |= bit;
        ++counts[static_cast<std::size_t>(d / gpus_per_server)];
      }
      for (std::size_t srv = 0; srv < servers; ++srv) used[srv] += counts[srv];
      walk_comp.push_back(inputs.Comp(counts));
      walk_link.push_back(0);  // set by the next stage, if any
      if (i > w.first) walk_link[i - 1] = inputs.Link(previous, counts);
      std::swap(previous, counts);
      w.widest = std::max(w.widest, stage.replication());
      expected_begin = stage.layer_end;
    }
    DAPPLE_CHECK(expected_begin == j && j < num_layers) << "a prefix ends at its level";
    int free_devices = 0;
    for (int srv = 0; srv < num_servers; ++srv) {
      const int n = used[static_cast<std::size_t>(srv)];
      for (topo::DeviceId d = srv * gpus_per_server; d < (srv + 1) * gpus_per_server; ++d) {
        const bool is_used = (taken[static_cast<std::size_t>(d) / 64] >> (d % 64)) & 1;
        DAPPLE_CHECK(is_used == (d - srv * gpus_per_server < n))
            << "server " << srv << " does not use its lowest " << n << " devices";
      }
      free_devices += gpus_per_server - n;
    }
    DAPPLE_CHECK_GT(free_devices, 0) << "no free device for the last stage";
    walk_last.insert(walk_last.end(), previous.begin(), previous.end());
    walks.push_back(w);
    return walks.back();
  };
  // The number of placements of node `index` of level `j`, walked but not
  // priced.
  auto count_placements = [&](int j, int index) {
    clear_walks();
    walk(j, index);
    return static_cast<long>(memo.Count(used));
  };

  // One unit of parallel work: a (frontier node, device placement) pair
  // that expands every split point jp on its own. Coarser than a single
  // candidate (good cache locality: all jp share the placement's stage
  // vocabulary), finer than a frontier node (parallelism exists even at
  // level 0, where the frontier is a single root).
  struct Subproblem {
    std::size_t walk = 0;
    std::size_t placement = 0;  // index into the walk's entry
  };

  // A level is expanded in batches of consecutive nodes with about this
  // many subproblems (a batch ends on a node boundary). Batching changes
  // nothing but memory: a level of a large cluster holds millions of
  // subproblems, and only one batch's walks and scores are alive.
  constexpr std::size_t kBatch = 1 << 14;
  // A batch's scores, the score of split point j + 1 + i of subproblem s at
  // s * splits + i; one buffer for the search. A split's plan and full
  // estimate are rebuilt only if the merge needs them.
  std::vector<CandidateScore> scores;
  std::vector<Subproblem> subproblems;

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
    // The budget is checked before the level evaluates anything: a counting
    // pass walks the expanding nodes and counts their placements.
    if (options_.max_subproblems > 0) {
      long enumerated = best.stats.subproblems;
      for (int index : expanding) {
        enumerated += count_placements(j, index);
        if (enumerated > options_.max_subproblems) {
          throw SearchTooLarge(options_.max_subproblems + 1, options_.max_subproblems,
                               best.stats.levels, evaluated, best.stats.frontier_peak);
        }
      }
    }

    // Every subproblem of this level scores the same split points (j, L).
    const auto splits = static_cast<std::size_t>(num_layers - j - 1);
    if (splits == 0) {
      // The last level has no split point left: its subproblems are
      // counted, never priced or merged.
      for (int index : expanding) best.stats.subproblems += count_placements(j, index);
      best.stats.enumerate_seconds += lap();
    }
    std::size_t level_expansions = 0;
    for (std::size_t next = 0; next < expanding.size() && splits > 0;) {
      // Phase 1 (sequential, cheap): the next batch's subproblems, in the
      // canonical order: node (key order) -> its entry's placements.
      memo.Trim();
      clear_walks();
      subproblems.clear();
      while (next < expanding.size() && subproblems.size() < kBatch) {
        const std::size_t w = walks.size();
        Walk& node = walk(j, expanding[next++]);
        node.entry = &memo.Get(used);
        for (std::size_t p = 0; p < node.entry->placements.size(); ++p) {
          subproblems.push_back(Subproblem{w, p});
        }
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

      // Phase 2 (parallel, hot): each subproblem reads its placement's row
      // inputs from the memo entry, prices the link from the node's last
      // stage into its carved stage, and scores all of its split points in
      // one pass from its stage-cost rows. Only jp varies inside one; the
      // prefix, both device counts, the stage count and the widest stage
      // (so the micro-batching) are fixed, and ScoreSplits does that fixed
      // work once. Results land in the subproblem's own slots; apart from
      // the row memo (pure values), nothing here writes search-global state.
      pool.ParallelFor(size, [&](std::size_t s) {
        const Subproblem& sub = subproblems[s];
        const Walk& node = walks[sub.walk];
        const PlacementMemo::Entry& entry = *node.entry;
        const PlacementMemo::Placement& p = entry.placements[sub.placement];
        const int widest = std::max({node.widest, p.size, p.free_devices});
        const StageRowMemo::Rows at = rows.At(mbs_index[static_cast<std::size_t>(widest)]);
        thread_local std::vector<RowEntry> prefix_entries;
        prefix_entries.clear();
        const std::size_t end = node.first + node.stages;
        for (std::size_t i = node.first; i < end; ++i) {
          const StagePlan& stage = *walk_stages[i];
          const auto x = static_cast<std::size_t>(stage.layer_end);
          std::size_t link = walk_link[i];
          if (i + 1 == end) {
            link = inputs.Link(
                std::span(walk_last).subspan(sub.walk * servers, servers),
                std::span(entry.carved_counts).subspan(sub.placement * servers, servers));
          }
          prefix_entries.push_back(at.Begin(stage.layer_begin, stage.recompute, walk_comp[i])[x]);
          prefix_entries.push_back(at.Comm(link)[x]);
        }
        estimator.ScoreSplits(
            {std::span(walk_stages).subspan(node.first, node.stages), prefix_entries, p.size,
             recompute_all, p.free_devices, recompute_all,
             at.Begin(j, recompute_all, p.carved_comp), at.Comm(p.boundary_link),
             at.End(recompute_all, p.suffix_comp)},
            by_width[static_cast<std::size_t>(widest)],
            std::span(scores).subspan(s * splits, splits));
      });
      best.stats.evaluate_seconds += lap();
      level_expansions += size * splits;

      // Phase 3 (sequential, deterministic): merge in enumeration order —
      // subproblem order, then jp ascending — identical outcomes to the
      // single-threaded search. Each split's frontier slot is an array read
      // at its placement's child key. A candidate's plan and estimate are
      // built only when it can enter `best` or the alternatives, its carved
      // device set only when it or its child node is, and its child node
      // only when the child takes its frontier slot.
      for (std::size_t s = 0; s < size; ++s) {
        const Subproblem& sub = subproblems[s];
        const Walk& node = walks[sub.walk];
        const PlacementMemo::Entry& entry = *node.entry;
        const PlacementMemo::Placement& p = entry.placements[sub.placement];
        row_lookups += static_cast<std::int64_t>(2 * node.stages + 3);
        std::optional<topo::DeviceSet> devices;
        auto carved_devices = [&]() -> const topo::DeviceSet& {
          if (!devices) {
            const std::span<const topo::DeviceId> carved = entry.carved(p);
            devices.emplace(std::vector<topo::DeviceId>(carved.begin(), carved.end()));
          }
          return *devices;
        };
        for (std::size_t i = 0; i < splits; ++i) {
          const int jp = j + 1 + static_cast<int>(i);
          const double tpl = merge(scores[s * splits + i], [&] {
            // The node's prefix, the carved stage [j, jp) and the default
            // suffix [jp, L) on the devices the carved stage leaves free.
            const topo::DeviceSet& carved = carved_devices();
            std::vector<topo::DeviceId> rest;
            for (topo::DeviceId d : entry.free) {
              if (!carved.contains(d)) rest.push_back(d);
            }
            ParallelPlan plan;
            plan.model = model_->name();
            for (std::size_t k = node.first; k < node.first + node.stages; ++k) {
              plan.stages.push_back(*walk_stages[k]);
            }
            plan.stages.push_back(StagePlan{j, jp, carved, p.policy, recompute_all});
            plan.stages.push_back(StagePlan{jp, num_layers, topo::DeviceSet(std::move(rest)),
                                            topo::PlacementPolicy::kFreshFirst, recompute_all});
            PlanEstimate est = estimator.Estimate(plan, options_.global_batch_size);
            return std::pair{std::move(plan), std::move(est)};
          });
          Level& child_level = frontier[static_cast<std::size_t>(jp)];
          SearchNode* slot = child_level.Find(p.child_key);
          if (slot == nullptr || tpl < slot->tpl) {
            SearchNode child{node.node, static_cast<int>(node.stages) + 1,
                             StagePlan{j, jp, carved_devices(), p.policy, recompute_all}, tpl};
            if (slot == nullptr) {
              child_level.Add(p.child_key, std::move(child));
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
    metrics.counter("planner.placement_memo.fills").Increment(memo.fills());
    metrics.counter("planner.placement_memo.hits").Increment(memo.hits());
    metrics.counter("planner.placement_memo.clears").Increment(memo.clears());
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
