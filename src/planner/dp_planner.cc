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
/// Walks point into entries, so the memo is cleared (when past
/// kPlacementMemoBytes) only by Trim, once no walk is kept.
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
  // Scratch of Enumerate and Fill.
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

/// Every subproblem has at least two stages, so its micro-batching is a
/// function of its widest stage alone: by_width[w], whose micro-batch size
/// is entry mbs_index[w] of `sizes`, the row memo's list.
struct MicroBatchTable {
  MicroBatchTable(long global_batch_size, int profile_micro_batch, int num_devices)
      : by_width(static_cast<std::size_t>(num_devices) + 1), mbs_index(by_width.size(), 0) {
    for (int w = 1; w <= num_devices; ++w) {
      const auto at = static_cast<std::size_t>(w);
      by_width[at] = ChooseMicroBatching(global_batch_size, profile_micro_batch, w, 2);
      const auto it = std::find(sizes.begin(), sizes.end(), by_width[at].micro_batch_size);
      mbs_index[at] = static_cast<int>(it - sizes.begin());
      if (it == sizes.end()) sizes.push_back(by_width[at].micro_batch_size);
    }
  }

  std::vector<MicroBatching> by_width;
  std::vector<int> mbs_index;
  std::vector<int> sizes;
};

/// One DapplePlanner search and all of its state (dp_planner.h walks through
/// its members). Run expands frontier_ level by level: frontier_[j] holds the
/// best node per canonical allocation key whose prefix covers layers [0, j).
class DpSearch {
 public:
  DpSearch(const model::ModelProfile& model, const topo::Cluster& cluster,
           const PlannerOptions& options, bool recompute_all)
      : model_(&model),
        cluster_(&cluster),
        options_(&options),
        recompute_all_(recompute_all),
        num_layers_(model.num_layers()),
        servers_(static_cast<std::size_t>(cluster.num_servers())),
        estimator_(model, cluster, options.latency),
        batching_(options.global_batch_size, model.profile_micro_batch(), cluster.num_devices()),
        rows_(estimator_, batching_.sizes),
        inputs_(rows_.inputs()),
        pool_(options.num_threads == 0
                  ? ThreadPool::Shared()
                  : local_pool_.emplace(static_cast<std::size_t>(options.num_threads))),
        packer_(cluster, cluster.homogeneous()),
        frontier_(static_cast<std::size_t>(num_layers_)),
        memo_(cluster, options.policies.empty() ? topo::AllPlacementPolicies() : options.policies,
              inputs_, packer_, keys_),
        used_(servers_),
        counts_(servers_),
        previous_(servers_),
        taken_((static_cast<std::size_t>(cluster.num_devices()) + 63) / 64) {
    DAPPLE_CHECK_GT(cluster.num_devices(), 0);
    best_.estimate.feasible = false;
    best_.estimate.latency = std::numeric_limits<TimeSec>::infinity();
    best_.stats.threads = static_cast<int>(pool_.num_threads());
    best_.stats.memory_cap = options.latency.memory_cap;
    // Pure data parallelism: the root's default-suffix completion, and the
    // baseline Finish pins into the alternatives. One estimate serves both.
    data_parallel_.model = model.name();
    data_parallel_.stages.push_back(StagePlan{0, num_layers_,
                                              topo::DeviceSet::Range(0, cluster.num_devices()),
                                              topo::PlacementPolicy::kFreshFirst, recompute_all});
    dp_est_ = estimator_.Estimate(data_parallel_, options.global_batch_size);
    SearchNode root{-1, 0, {}, 0.0};
    root.tpl = Merge(CandidateScore{dp_est_.feasible, dp_est_.memory_limited, dp_est_.latency,
                                    dp_est_.max_peak_memory},
                     [&] { return std::pair{data_parallel_, dp_est_}; });
    std::string key(packer_.size(), '\0');
    packer_.Pack(used_, key.data());  // no device used yet
    frontier_[0].Add(keys_.Intern(key), std::move(root));
  }
  // The memo, the pool and the walks point into the search's own members.
  DpSearch(const DpSearch&) = delete;
  DpSearch& operator=(const DpSearch&) = delete;

  PlanResult Run() {
    for (int j = 0; j < num_layers_; ++j) {
      Level& level = frontier_[static_cast<std::size_t>(j)];
      if (level.size() == 0) continue;
      ++best_.stats.levels;
      best_.stats.frontier_peak = std::max<long>(best_.stats.frontier_peak, level.size());
      phase_clock_ = std::chrono::steady_clock::now();
      const std::vector<int> expanding = Expanding(j);
      // Every subproblem of this level scores the same split points (j, L).
      // The last level has none: its subproblems are counted, never priced
      // or merged.
      const auto splits = static_cast<std::size_t>(num_layers_ - j - 1);
      std::size_t level_expansions = 0;
      for (std::size_t next = 0; next < expanding.size();) {
        next = BuildBatch(j, expanding, next);
        if (splits == 0) continue;
        Evaluate(j, splits);
        MergeBatch(j, splits);
        level_expansions += subproblems_.size() * splits;
      }
      obs::MetricsRegistry::Global()
          .counter("planner.estimator_calls")
          .Increment(static_cast<std::int64_t>(level_expansions));
      // The search only moves forward: later levels read this one's nodes
      // only for their stages and parents.
      level.Release();
    }
    return Finish();
  }

 private:
  /// What expanding one node reads of its own prefix, derived once per
  /// node and never per subproblem, and its placement-memo entry. A
  /// batch's walks share scratch reused batch after batch: walk w's prefix
  /// stages (pointers into the frontier, first stage first), each stage's
  /// CompInputs index and the StageLink index into the next stage sit at
  /// [first, first + stages) of walk_stages_, walk_comp_ and walk_link_,
  /// and its last stage's per-server counts (its link into the carved stage
  /// varies) at w * servers_ of walk_last_.
  struct Walk {
    int node = 0;
    const PlacementMemo::Entry* entry = nullptr;
    std::size_t first = 0;
    std::size_t stages = 0;
    int widest = 1;  // widest prefix stage
  };

  /// One unit of parallel work: a (frontier node, device placement) pair
  /// that expands every split point jp on its own. Coarser than a single
  /// candidate (all jp share the placement's stage rows), finer than a
  /// frontier node (parallelism exists even at level 0, whose frontier is
  /// the root alone).
  struct Subproblem {
    std::size_t walk = 0;
    std::size_t placement = 0;  // index into the walk's entry
  };

  /// A level is expanded in batches of consecutive nodes with about this
  /// many subproblems (a batch ends on a node boundary). Batching changes
  /// nothing but memory: a level of a large cluster holds millions of
  /// subproblems, and only one batch's walks and scores are alive.
  static constexpr std::size_t kBatch = 1 << 14;

  /// Seconds since the last lap (or the level's start).
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - phase_clock_).count();
    phase_clock_ = now;
    return s;
  }

  /// Drops the walks, and with them every read of a memo entry, so the
  /// memo may be trimmed.
  void ClearWalks() {
    walks_.clear();
    walk_stages_.clear();
    walk_comp_.clear();
    walk_link_.clear();
    walk_last_.clear();
    memo_.Trim();
  }

  /// Walks node `index` of level `j` from its parents and reads its
  /// placement-memo entry. Nodes hold no device state: the walk checks
  /// what a plan of the prefix and a last stage on every free device must
  /// hold (contiguous non-empty stages, no device in two stages, free
  /// devices left), which covers every subproblem's prefix, since each one
  /// only splits the free devices in two. It also checks that each server's
  /// used devices are its lowest, the invariant the memo's key rests on.
  const Walk& WalkNode(int j, int index) {
    Walk w{index, nullptr, walk_stages_.size(), 0, 1};
    for (int at = j; at > 0;) {
      const SearchNode& n = frontier_[static_cast<std::size_t>(at)].node(index);
      walk_stages_.push_back(&n.stage);
      index = n.parent;
      at = n.stage.layer_begin;
    }
    std::reverse(walk_stages_.begin() + static_cast<std::ptrdiff_t>(w.first), walk_stages_.end());
    w.stages = walk_stages_.size() - w.first;
    std::fill(taken_.begin(), taken_.end(), 0);
    std::fill(used_.begin(), used_.end(), 0);
    std::fill(previous_.begin(), previous_.end(), 0);
    const int per = cluster_->gpus_per_server();
    int expected_begin = 0;
    for (std::size_t i = w.first; i < walk_stages_.size(); ++i) {
      const StagePlan& stage = *walk_stages_[i];
      DAPPLE_CHECK(stage.layer_begin == expected_begin && stage.layer_end > stage.layer_begin &&
                   !stage.devices.empty())
          << "prefix stage [" << stage.layer_begin << ", " << stage.layer_end
          << ") is not the next non-empty stage";
      std::fill(counts_.begin(), counts_.end(), 0);
      for (topo::DeviceId d : stage.devices.devices()) {
        DAPPLE_CHECK(d >= 0 && d < cluster_->num_devices())
            << "device G" << d << " is not in the cluster";
        std::uint64_t& word = taken_[static_cast<std::size_t>(d) / 64];
        const std::uint64_t bit = std::uint64_t{1} << (d % 64);
        DAPPLE_CHECK((word & bit) == 0) << "device G" << d << " in two stages";
        word |= bit;
        ++counts_[static_cast<std::size_t>(d / per)];
      }
      for (std::size_t srv = 0; srv < servers_; ++srv) used_[srv] += counts_[srv];
      walk_comp_.push_back(inputs_.Comp(counts_));
      walk_link_.push_back(0);  // set by the next stage, if any
      if (i > w.first) walk_link_[i - 1] = inputs_.Link(previous_, counts_);
      std::swap(previous_, counts_);
      w.widest = std::max(w.widest, stage.replication());
      expected_begin = stage.layer_end;
    }
    DAPPLE_CHECK(expected_begin == j && j < num_layers_) << "a prefix ends at its level";
    int free_devices = 0;
    for (int srv = 0; srv < cluster_->num_servers(); ++srv) {
      const int n = used_[static_cast<std::size_t>(srv)];
      for (topo::DeviceId d = srv * per; d < (srv + 1) * per; ++d) {
        const bool is_used = (taken_[static_cast<std::size_t>(d) / 64] >> (d % 64)) & 1;
        DAPPLE_CHECK(is_used == (d - srv * per < n))
            << "server " << srv << " does not use its lowest " << n << " devices";
      }
      free_devices += per - n;
    }
    DAPPLE_CHECK_GT(free_devices, 0) << "no free device for the last stage";
    walk_last_.insert(walk_last_.end(), previous_.begin(), previous_.end());
    w.entry = &memo_.Get(used_);
    walks_.push_back(w);
    return walks_.back();
  }

  /// The nodes of level j that expand, in ascending key order: below the
  /// stage cap and not pruned (counted in pruned_). Nodes whose
  /// default-suffix completion was infeasible (tpl = inf) stay expandable:
  /// splitting the suffix further may restore memory feasibility (this is
  /// how AmoebaNet-36, which cannot run data-parallel, still gets planned).
  /// Under a search budget, a pass walks them and counts their placements
  /// before the level evaluates anything.
  std::vector<int> Expanding(int j) {
    Level& level = frontier_[static_cast<std::size_t>(j)];
    const int max_stages =
        options_->max_stages > 0 ? options_->max_stages : cluster_->num_devices();
    // Pruning reads the incumbent only here, before the level's first
    // merge, so it cannot observe mid-level merge order and stays identical
    // at every thread count.
    const bool prune = options_->prune_slack > 0.0 && best_.estimate.feasible;
    const double prune_above = best_.estimate.latency * options_->prune_slack;
    std::vector<int> expanding;
    for (int index : level.KeyOrder(keys_)) {
      const SearchNode& node = level.node(index);
      if (node.num_stages + 1 >= max_stages) continue;
      if (prune && std::isfinite(node.tpl) && node.tpl > prune_above) {
        ++pruned_;
        continue;
      }
      expanding.push_back(index);
    }
    if (options_->max_subproblems > 0) {
      long enumerated = best_.stats.subproblems;
      for (int index : expanding) {
        ClearWalks();
        enumerated += static_cast<long>(WalkNode(j, index).entry->placements.size());
        if (enumerated > options_->max_subproblems) {
          throw SearchTooLarge(options_->max_subproblems + 1, options_->max_subproblems,
                               best_.stats.levels, evaluated_, best_.stats.frontier_peak);
        }
      }
    }
    return expanding;
  }

  /// Phase 1 (serial, cheap): walks expanding nodes from `next` on into a
  /// batch of about kBatch subproblems, in canonical order (node key order,
  /// then its entry's placements), and returns the next node to walk.
  std::size_t BuildBatch(int j, std::span<const int> expanding, std::size_t next) {
    ClearWalks();
    subproblems_.clear();
    while (next < expanding.size() && subproblems_.size() < kBatch) {
      const std::size_t w = walks_.size();
      const Walk& node = WalkNode(j, expanding[next++]);
      for (std::size_t p = 0; p < node.entry->placements.size(); ++p) {
        subproblems_.push_back(Subproblem{w, p});
      }
    }
    best_.stats.subproblems += static_cast<long>(subproblems_.size());
    best_.stats.enumerate_seconds += Lap();
    return next;
  }

  /// Phase 2 (parallel, hot): scores every split of the batch into scores_,
  /// the score of split point j + 1 + i of subproblem s at s * splits + i.
  /// A split's plan and full estimate are rebuilt only if the merge needs
  /// them.
  void Evaluate(int j, std::size_t splits) {
    const std::size_t size = subproblems_.size();
    // A batch overwrites each score it reads, so a larger buffer frees the
    // old one first rather than copying it.
    if (scores_.size() < size * splits) {
      std::vector<CandidateScore>().swap(scores_);
      scores_.resize(size * splits);
    }
    pool_.ParallelFor(size, [this, j, splits](std::size_t s) { Score(j, s, splits); });
    best_.stats.evaluate_seconds += Lap();
  }

  /// Scores subproblem s: reads its placement's row inputs from the memo
  /// entry, prices the link from the node's last stage into its carved
  /// stage, and scores all of its split points in one pass from its
  /// stage-cost rows. Only jp varies inside one; the prefix, both device
  /// counts, the stage count and the widest stage (so the micro-batching)
  /// are fixed, and ScoreSplits does that fixed work once. Writes only its
  /// own score slots and the row memo (pure values).
  void Score(int j, std::size_t s, std::size_t splits) {
    const Subproblem& sub = subproblems_[s];
    const Walk& node = walks_[sub.walk];
    const PlacementMemo::Entry& entry = *node.entry;
    const PlacementMemo::Placement& p = entry.placements[sub.placement];
    const auto widest = static_cast<std::size_t>(std::max({node.widest, p.size, p.free_devices}));
    const StageRowMemo::Rows at = rows_.At(batching_.mbs_index[widest]);
    thread_local std::vector<RowEntry> prefix_entries;
    prefix_entries.clear();
    const std::size_t end = node.first + node.stages;
    for (std::size_t i = node.first; i < end; ++i) {
      const StagePlan& stage = *walk_stages_[i];
      const auto x = static_cast<std::size_t>(stage.layer_end);
      std::size_t link = walk_link_[i];
      if (i + 1 == end) {
        link = inputs_.Link(
            std::span(walk_last_).subspan(sub.walk * servers_, servers_),
            std::span(entry.carved_counts).subspan(sub.placement * servers_, servers_));
      }
      prefix_entries.push_back(at.Begin(stage.layer_begin, stage.recompute, walk_comp_[i])[x]);
      prefix_entries.push_back(at.Comm(link)[x]);
    }
    estimator_.ScoreSplits(
        {std::span(walk_stages_).subspan(node.first, node.stages), prefix_entries, p.size,
         recompute_all_, p.free_devices, recompute_all_,
         at.Begin(j, recompute_all_, p.carved_comp), at.Comm(p.boundary_link),
         at.End(recompute_all_, p.suffix_comp)},
        batching_.by_width[widest], std::span(scores_).subspan(s * splits, splits));
  }

  /// Phase 3 (serial, deterministic): merges the batch's scores in
  /// enumeration order (subproblem order, then jp ascending), the same
  /// outcomes as a single-threaded search. Each split's frontier slot is an
  /// array read at its placement's child key. A candidate's plan and
  /// estimate are built only when it can enter the incumbent or the
  /// alternatives, its carved device set only when it or its child node is,
  /// and its child node only when the child takes its frontier slot.
  void MergeBatch(int j, std::size_t splits) {
    for (std::size_t s = 0; s < subproblems_.size(); ++s) {
      const Subproblem& sub = subproblems_[s];
      const Walk& node = walks_[sub.walk];
      const PlacementMemo::Placement& p = node.entry->placements[sub.placement];
      row_lookups_ += static_cast<std::int64_t>(2 * node.stages + 3);
      std::optional<topo::DeviceSet> devices;
      auto carved_devices = [&]() -> const topo::DeviceSet& {
        if (!devices) {
          const std::span<const topo::DeviceId> carved = node.entry->carved(p);
          devices.emplace(std::vector<topo::DeviceId>(carved.begin(), carved.end()));
        }
        return *devices;
      };
      for (std::size_t i = 0; i < splits; ++i) {
        const int jp = j + 1 + static_cast<int>(i);
        const double tpl = Merge(scores_[s * splits + i], [&] {
          return Candidate(node, StagePlan{j, jp, carved_devices(), p.policy, recompute_all_});
        });
        Level& child_level = frontier_[static_cast<std::size_t>(jp)];
        SearchNode* slot = child_level.Find(p.child_key);
        if (slot == nullptr || tpl < slot->tpl) {
          SearchNode child{node.node, static_cast<int>(node.stages) + 1,
                           StagePlan{j, jp, carved_devices(), p.policy, recompute_all_}, tpl};
          if (slot == nullptr) {
            child_level.Add(p.child_key, std::move(child));
          } else {
            *slot = std::move(child);
          }
        }
      }
    }
    best_.stats.merge_seconds += Lap();
  }

  /// The candidate of a walked node's prefix, its carved stage and the
  /// default suffix on the devices that stage leaves free, with its full
  /// estimate.
  std::pair<ParallelPlan, PlanEstimate> Candidate(const Walk& node, StagePlan carved) const {
    std::vector<topo::DeviceId> rest;
    for (topo::DeviceId d : node.entry->free) {
      if (!carved.devices.contains(d)) rest.push_back(d);
    }
    ParallelPlan plan;
    plan.model = model_->name();
    for (std::size_t k = node.first; k < node.first + node.stages; ++k) {
      plan.stages.push_back(*walk_stages_[k]);
    }
    const int jp = carved.layer_end;
    plan.stages.push_back(std::move(carved));
    plan.stages.push_back(StagePlan{jp, num_layers_, topo::DeviceSet(std::move(rest)),
                                    topo::PlacementPolicy::kFreshFirst, recompute_all_});
    PlanEstimate est = estimator_.Estimate(plan, options_->global_batch_size);
    return std::pair{std::move(plan), std::move(est)};
  }

  /// Merges one scored candidate into the incumbent and the alternatives,
  /// the only code that touches either; it runs in the serial search's
  /// enumeration order. `materialize` builds the candidate's plan and full
  /// estimate, called only when the candidate can enter either, and the
  /// estimate must agree with the row-based score bit for bit (a row key
  /// missing an input of the estimate would show here first). Returns the
  /// candidate's TPL (inf when infeasible).
  template <typename Materialize>
  double Merge(const CandidateScore& score, Materialize&& materialize) {
    ++evaluated_;
    if (!score.feasible) {
      if (score.memory_limited) ++memory_rejected_;
      last_infeasible_peak_ = score.peak;
      return std::numeric_limits<double>::infinity();
    }
    const bool improves = score.latency < best_.estimate.latency || !best_.estimate.feasible;
    // A candidate strictly worse than the k-th alternative can never enter
    // them; a tie reaches KeepAlternative, which places it after the kept
    // plans of its latency.
    auto& kept = best_.alternatives;
    const bool may_rank = options_->keep_alternatives > 0 &&
                          !(static_cast<int>(kept.size()) >= options_->keep_alternatives &&
                            score.latency > kept.back().second.latency);
    if (improves || may_rank) {
      auto [plan, est] = materialize();
      DAPPLE_CHECK(est.feasible == score.feasible &&
                   est.memory_limited == score.memory_limited &&
                   std::bit_cast<std::uint64_t>(est.latency) ==
                       std::bit_cast<std::uint64_t>(score.latency) &&
                   est.max_peak_memory == score.peak)
          << "row-based score of " << plan.ToString() << " disagrees with its estimate";
      if (may_rank) KeepAlternative(plan, est);
      if (improves) {
        best_.plan = std::move(plan);
        best_.estimate = std::move(est);
      }
    }
    return score.latency;
  }

  /// Keeps the top keep_alternatives distinct candidates for the simulator
  /// re-rank, ascending by latency, a tie after the kept ones. Two plans
  /// are the same candidate when their stages cover the same layers on the
  /// same devices, whatever their policies and recompute flags.
  void KeepAlternative(const ParallelPlan& plan, const PlanEstimate& est) {
    auto& kept = best_.alternatives;
    auto same_stages = [&plan](const std::pair<ParallelPlan, PlanEstimate>& alt) {
      return std::equal(plan.stages.begin(), plan.stages.end(), alt.first.stages.begin(),
                        alt.first.stages.end(), [](const StagePlan& a, const StagePlan& b) {
                          return a.layer_begin == b.layer_begin && a.layer_end == b.layer_end &&
                                 a.devices == b.devices;
                        });
    };
    if (std::any_of(kept.begin(), kept.end(), same_stages)) return;
    const auto at = std::upper_bound(kept.begin(), kept.end(), est.latency,
                                     [](TimeSec latency, const auto& alt) {
                                       return latency < alt.second.latency;
                                     });
    kept.emplace(at, plan, est);
    if (static_cast<int>(kept.size()) > options_->keep_alternatives) kept.pop_back();
  }

  /// Books the search's stats and metrics, pins the data-parallel plan
  /// into the alternatives and returns the result, or throws NoFeasiblePlan.
  PlanResult Finish() {
    best_.stats.candidates_evaluated = evaluated_;
    best_.stats.candidates_pruned = pruned_;
    best_.stats.memory_rejected = memory_rejected_;
    // Each key is filled exactly once, so the misses are the rows at every
    // thread count.
    const StageRowMemo::Stats totals = rows_.TotalStats();
    best_.stats.cache_hits = row_lookups_ - totals.rows;
    best_.stats.cache_misses = totals.rows;
    best_.stats.cache_compute_seconds = totals.fill_seconds;
    best_.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.counter("planner.candidates_evaluated").Increment(evaluated_);
    metrics.counter("planner.cache.hits").Increment(best_.stats.cache_hits);
    metrics.counter("planner.cache.misses").Increment(best_.stats.cache_misses);
    metrics.histogram("planner.cache.compute_seconds").Observe(best_.stats.cache_compute_seconds);
    metrics.histogram("planner.parallel.wall_seconds").Observe(best_.stats.wall_seconds);
    metrics.counter("planner.placement_memo.fills").Increment(memo_.fills());
    metrics.counter("planner.placement_memo.hits").Increment(memo_.hits());
    metrics.counter("planner.placement_memo.clears").Increment(memo_.clears());
    if (recompute_all_) best_.stats.recompute_stages = best_.plan.num_stages();

    // Pin the pure data-parallel plan into the alternatives (appended past
    // the top-k cut if necessary): it is the paper's universal baseline and
    // the simulator re-ranking should always get to veto in its favour.
    auto& kept = best_.alternatives;
    if (options_->keep_alternatives > 0 && best_.estimate.feasible && dp_est_.feasible &&
        std::none_of(kept.begin(), kept.end(),
                     [](const auto& alt) { return alt.first.IsDataParallel(); })) {
      kept.emplace_back(std::move(data_parallel_), dp_est_);
    }

    if (!best_.estimate.feasible) {
      std::ostringstream os;
      os << "no feasible plan for " << model_->name() << " on " << cluster_->name() << " ("
         << cluster_->num_devices() << " devices)";
      if (options_->latency.memory_cap > 0) {
        os << " under memory cap " << FormatBytes(options_->latency.memory_cap)
           << (recompute_all_ ? " with recompute" : "");
      }
      if (last_infeasible_peak_) os << ": " << estimator_.MemoryReason(*last_infeasible_peak_);
      throw NoFeasiblePlan(os.str());
    }
    return std::move(best_);
  }

  const std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  const model::ModelProfile* model_;
  const topo::Cluster* cluster_;
  const PlannerOptions* options_;
  bool recompute_all_;  // flags every stage the search creates
  int num_layers_;
  std::size_t servers_;
  LatencyEstimator estimator_;
  MicroBatchTable batching_;
  /// One row memo for the whole search, shared by every subproblem.
  StageRowMemo rows_;
  const RowInputs& inputs_;
  /// Unset on the shared pool; a pool of 1 runs inline on this thread.
  std::optional<ThreadPool> local_pool_;
  ThreadPool& pool_;

  PlanResult best_;  // the incumbent, its alternatives and the stats
  ParallelPlan data_parallel_;
  PlanEstimate dp_est_;
  /// The peak of the last memory-infeasible candidate, for the error.
  std::optional<Bytes> last_infeasible_peak_;
  long evaluated_ = 0;
  long pruned_ = 0;
  long memory_rejected_ = 0;
  std::int64_t row_lookups_ = 0;

  KeyPacker packer_;
  KeyInterner keys_;
  std::vector<Level> frontier_;
  PlacementMemo memo_;

  // Walk scratch (see Walk), and one batch's subproblems and scores.
  std::vector<Walk> walks_;
  std::vector<const StagePlan*> walk_stages_;
  std::vector<std::size_t> walk_comp_;
  std::vector<std::size_t> walk_link_;
  std::vector<int> walk_last_;
  std::vector<int> used_;
  std::vector<int> counts_;
  std::vector<int> previous_;
  std::vector<std::uint64_t> taken_;
  std::vector<Subproblem> subproblems_;
  std::vector<CandidateScore> scores_;
  std::chrono::steady_clock::time_point phase_clock_;
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
  return DpSearch(*model_, *cluster_, options_, recompute_all).Run();
}

}  // namespace dapple::planner
