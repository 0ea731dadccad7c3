// Determinism sweep for the parallel memoized planner: across a seeded set
// of fuzz-generated (model, cluster) instances, the search must return a
// byte-identical winning plan — and identical alternatives, evaluation
// counts, search shape (subproblems, frontier peak, levels) and
// bit-identical latencies — at every thread count. The parallel
// search is deterministic by construction (sequential merge in enumeration
// order, slot-indexed parallel work, pure memoized rows); this sweep is the
// regression net around that construction. A 128-device cluster plans
// through the row memo identically at one and four threads, threads racing
// on the memo itself fill one bit-exact row per key exactly once, device
// sets with equal pricer inputs share a row that is bit-exact for each of
// them, and pricer inputs derived from per-server counts equal those
// derived from device sets bit for bit. On two 32-device heterogeneous
// clusters, where frontier and placement-memo keys are positional, every
// thread count returns a pinned plan, latency and search size. Session::Plan
// re-ranks to the same plan on the shared pool as inline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzz.h"
#include "common/error.h"
#include "dapple/dapple.h"
#include "estimate_bits.h"
#include "fault/degrade.h"
#include "model/zoo.h"
#include "planner/dp_planner.h"
#include "planner/plan_io.h"
#include "planner/stage_cache.h"
#include "topo/cluster.h"

namespace dapple::planner {
namespace {

/// Everything about a search that must not depend on the thread count:
/// its outcome, latencies as bits, and the shape of the search itself, so
/// a frontier-slot regression shows as a count change.
struct SearchFingerprint {
  bool feasible = false;
  std::string plan;  // SerializePlan of the winner ("" when infeasible)
  std::vector<std::string> alternatives;
  std::vector<std::uint64_t> alternative_latency_bits;
  std::uint64_t latency_bits = 0;
  long evaluated = 0;
  long subproblems = 0;
  long frontier_peak = 0;
  int levels = 0;

  bool operator==(const SearchFingerprint& other) const = default;
};

SearchFingerprint Fingerprint(const PlanResult& result) {
  SearchFingerprint fp;
  fp.feasible = true;
  fp.plan = SerializePlan(result.plan);
  for (const auto& [alt, est] : result.alternatives) {
    fp.alternatives.push_back(SerializePlan(alt));
    fp.alternative_latency_bits.push_back(DoubleBits(est.latency));
  }
  fp.latency_bits = DoubleBits(result.estimate.latency);
  fp.evaluated = result.stats.candidates_evaluated;
  fp.subproblems = result.stats.subproblems;
  fp.frontier_peak = result.stats.frontier_peak;
  fp.levels = result.stats.levels;
  return fp;
}

SearchFingerprint RunSearch(const model::ModelProfile& m, const topo::Cluster& cluster,
                            long gbs, int threads) {
  PlannerOptions options;
  options.global_batch_size = gbs;
  options.num_threads = threads;
  try {
    return Fingerprint(DapplePlanner(m, cluster, options).Plan());
  } catch (const NoFeasiblePlan&) {
    // Infeasible instances stay in the sweep: every thread count must agree
    // that (and leave the fingerprint empty).
    return {};
  }
}

int SweepInstances() {
  // DAPPLE_FUZZ_ITERATIONS scales the determinism sweep too, but never
  // below the pinned floor of 200 instances.
  if (const char* env = std::getenv("DAPPLE_FUZZ_ITERATIONS")) {
    const int n = std::atoi(env);
    if (n > 200) return n;
  }
  return 200;
}

TEST(PlannerDeterminismTest, SeededSweepIsByteIdenticalAcrossThreadCounts) {
  const int instances = SweepInstances();
  int feasible = 0;
  int multi_stage = 0;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(instances); ++seed) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const long gbs = c.options.global_batch_size;

    const SearchFingerprint serial = RunSearch(c.model, c.cluster, gbs, 1);
    if (serial.feasible) {
      ++feasible;
      if (serial.alternatives.size() > 1) ++multi_stage;
    }

    for (int threads : {2, 8}) {
      const SearchFingerprint parallel =
          RunSearch(c.model, c.cluster, gbs, threads);
      ASSERT_EQ(serial, parallel)
          << "thread count changed the search outcome: seed=" << seed
          << " threads=" << threads << " " << c.Describe();
    }
  }
  // The sweep must not be vacuous: most fuzz instances plan successfully
  // and keep real alternative lists.
  EXPECT_GT(feasible, instances / 2);
  EXPECT_GT(multi_stage, instances / 4);
}

TEST(PlannerDeterminismTest, SharedPoolAndDedicatedPoolAgree) {
  // num_threads = 0 (shared pool, whatever size the host gives it) must
  // also match the serial fingerprint — the default configuration is
  // covered by the same guarantee, not just explicit thread counts.
  for (std::uint64_t seed : {3u, 7u, 21u, 42u, 77u}) {
    const check::FuzzCase c = check::MakeFuzzCase(seed);
    const long gbs = c.options.global_batch_size;
    const SearchFingerprint serial = RunSearch(c.model, c.cluster, gbs, 1);
    const SearchFingerprint shared = RunSearch(c.model, c.cluster, gbs, 0);
    ASSERT_EQ(serial, shared) << "seed=" << seed << " " << c.Describe();
  }
}

TEST(PlannerDeterminismTest, SessionReRankOnSharedAndInlinePoolsAgrees) {
  // Session::Plan simulates the alternatives on the planner's pool rule:
  // at 0 threads on ThreadPool::Shared(), at 1 inline. Both return the
  // same plan and alternatives on Table V instances.
  struct Instance {
    const char* model;
    char config;
    long gbs;
  };
  for (const Instance& in : {Instance{"GNMT-16", 'A', 1024}, Instance{"BERT-48", 'C', 64},
                             Instance{"XLNet-36", 'A', 128}}) {
    const Session session(model::ModelByName(in.model), in.config == 'A'
                                                            ? topo::MakeConfigA(2)
                                                            : topo::MakeConfig(in.config, 16));
    auto plan = [&](int threads) {
      PlannerOptions options;
      options.num_threads = threads;
      return session.Plan(in.gbs, options);
    };
    const PlanResult shared = plan(0);
    const PlanResult serial = plan(1);
    ASSERT_GT(serial.alternatives.size(), 1u) << in.model << " " << in.config;
    EXPECT_EQ(SerializePlan(shared.plan), SerializePlan(serial.plan))
        << in.model << " " << in.config;
    EXPECT_EQ(Fingerprint(shared), Fingerprint(serial)) << in.model << " " << in.config;
  }
}

TEST(PlannerDeterminismTest, Cluster128DevicesPlansCachedAndMatchesAcrossThreads) {
  // A 128-device cluster searches through the row memo like any other: the
  // memo is actually hit, and one and four threads agree.
  // Three stages, so second-level subproblems share their prefix rows (with
  // two, every row of a search is distinct); one placement policy keeps the
  // search small enough for the ThreadSanitizer tier.
  const model::ModelProfile m = model::MakeUniformSynthetic(4, 0.01, 0.02, 1_MiB, 2'000'000, 1);
  const topo::Cluster cluster = topo::MakeConfigA(16);
  ASSERT_EQ(cluster.num_devices(), 128);
  auto plan = [&](int threads) {
    PlannerOptions options;
    options.global_batch_size = 1024;
    options.num_threads = threads;
    options.max_stages = 3;
    options.policies = {topo::PlacementPolicy::kFreshFirst};
    return DapplePlanner(m, cluster, options).Plan();
  };
  const PlanResult serial = plan(1);
  const PlanResult parallel = plan(4);
  EXPECT_GT(serial.stats.cache_hits, 0);
  EXPECT_GT(parallel.stats.cache_hits, 0);
  EXPECT_EQ(Fingerprint(serial), Fingerprint(parallel));
}

/// A search's outcome on a heterogeneous cluster, pinned to the values the
/// planner returned before it read placements from per-server counts.
struct PinnedSearch {
  std::string plan;
  std::uint64_t latency_bits = 0;
  long subproblems = 0;
  long candidates = 0;
};

void ExpectPinnedAtEveryThreadCount(const topo::Cluster& cluster, const PinnedSearch& pinned) {
  ASSERT_EQ(cluster.num_devices(), 32);
  ASSERT_FALSE(cluster.homogeneous());
  const model::ModelProfile m = model::MakeGnmt16();
  for (int threads : {1, 2, 4, 8}) {
    PlannerOptions options;
    options.global_batch_size = 1024;
    options.num_threads = threads;
    options.max_stages = 4;  // keeps the search fit for the ThreadSanitizer tier
    const PlanResult result = DapplePlanner(m, cluster, options).Plan();
    EXPECT_EQ(SerializePlan(result.plan), pinned.plan) << threads << " threads";
    EXPECT_EQ(DoubleBits(result.estimate.latency), pinned.latency_bits) << threads << " threads";
    EXPECT_EQ(result.stats.subproblems, pinned.subproblems) << threads << " threads";
    EXPECT_EQ(result.stats.candidates_evaluated, pinned.candidates) << threads << " threads";
  }
}

TEST(PlannerDeterminismTest, PerServerSpeedsKeepPositionalPlacementsPinned) {
  // Servers at different speeds are not interchangeable, so frontier keys
  // and placement-memo keys stay positional: server 1 is the slow one.
  ExpectPinnedAtEveryThreadCount(
      topo::MakeConfigA(4).WithServerSpeeds({1.0, 0.5, 1.0, 0.75}),
      {"model: GNMT-16\n"
       "stage: layers 0 7 devices 0 1 2 3 4 5 6 7\n"
       "stage: layers 7 12 devices 16 17 18 19 20 21 22 23\n"
       "stage: layers 12 16 devices 8 9 10 11 12 13 14 15 24 25 26 27 28 29 30 31\n",
       4608236519546717974ull, 143'723, 1'200'250});
}

TEST(PlannerDeterminismTest, DegradedClusterKeepsPositionalPlacementsPinned) {
  // Five servers, one drained by a dead device and one a straggler: the
  // planner sees four servers renumbered densely.
  const topo::Cluster five = topo::MakeConfigA(5);
  fault::ClusterState state = fault::StateAt(fault::FaultScript{}, five, 0.0);
  state.device_dead[12] = true;    // drains server 1
  state.server_compute[3] = 0.5;   // a straggler, server 2 once renumbered
  state.server_bandwidth[4] = 0.5;
  const fault::DegradedCluster degraded = fault::MakeDegradedCluster(five, state);
  ASSERT_TRUE(degraded.feasible);
  ExpectPinnedAtEveryThreadCount(
      degraded.cluster,
      {"model: GNMT-16\n"
       "stage: layers 0 7 devices 0 1 2 3 4 5 6 7\n"
       "stage: layers 7 12 devices 8 9 10 11 12 13 14 15\n"
       "stage: layers 12 14 devices 24 25 26 27\n"
       "stage: layers 14 16 devices 16 17 18 19 20 21 22 23 28 29 30 31\n",
       4608256164591286712ull, 105'165, 904'381});
}

/// One memo lookup: a row family, its device sets (`to` for kComm only) and
/// the rest of its key.
struct RowLookup {
  StageRowMemo::Family family = StageRowMemo::Family::kBegin;
  int anchor = 0;
  topo::DeviceSet from;
  topo::DeviceSet to;
  int micro_batch_size = 1;
  bool recompute = false;
};

/// The row `l` names, its inputs derived from per-server counts as the
/// planner derives them. The memos below list micro-batch sizes 1, 2, ...,
/// so size m has index m - 1.
std::span<const RowEntry> LookUp(StageRowMemo& memo, const topo::Cluster& cluster,
                                 const RowLookup& l) {
  const StageRowMemo::Rows rows = memo.At(l.micro_batch_size - 1);
  const std::vector<int> from = l.from.PerServerCounts(cluster);
  switch (l.family) {
    case StageRowMemo::Family::kBegin:
      return rows.Begin(l.anchor, l.recompute, memo.inputs().Comp(from));
    case StageRowMemo::Family::kEnd:
      return rows.End(l.recompute, memo.inputs().Comp(from));
    case StageRowMemo::Family::kComm:
      break;
  }
  return rows.Comm(memo.inputs().Link(from, l.to.PerServerCounts(cluster)));
}

/// A row's key as the pricer sees it: the family, the sets' pricer inputs
/// (from the device sets, not the counts) and the rest.
struct RowKey {
  StageRowMemo::Family family = StageRowMemo::Family::kBegin;
  bool recompute = false;
  int anchor = 0;
  int micro_batch_size = 0;
  CompInputs comp;
  comm::StageLink link;

  bool operator==(const RowKey& other) const = default;
};

RowKey KeyOf(const topo::Cluster& cluster, const RowLookup& l) {
  RowKey key{l.family, l.recompute, l.anchor, l.micro_batch_size, {}, {}};
  if (l.family == StageRowMemo::Family::kComm) {
    key.recompute = false;
    key.link = comm::StageLink::Between(cluster, l.from, l.to);
  } else {
    key.comp = CompInputs::Of(cluster, l.from);
  }
  if (l.family != StageRowMemo::Family::kBegin) key.anchor = 0;
  return key;
}

/// How many rows the lookups name: one per distinct key.
std::int64_t DistinctKeys(const topo::Cluster& cluster, const std::vector<RowLookup>& lookups) {
  std::vector<RowKey> keys;
  for (const RowLookup& l : lookups) {
    const RowKey key = KeyOf(cluster, l);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  return static_cast<std::int64_t>(keys.size());
}

/// The row `l` names, filled from scratch through CompOn/CommAcross on its
/// device sets (no memo, no counts).
std::vector<RowEntry> FreshRow(const LatencyEstimator& estimator, const RowLookup& l) {
  const int layers = estimator.model().num_layers();
  std::vector<RowEntry> row(static_cast<std::size_t>(layers));
  switch (l.family) {
    case StageRowMemo::Family::kBegin: {
      const auto comp = estimator.CompOn(l.from, l.micro_batch_size, l.anchor, layers);
      for (int e = l.anchor + 1; e < layers; ++e) {
        row[static_cast<std::size_t>(e)] = comp.Entry(l.anchor, e, l.recompute);
      }
      break;
    }
    case StageRowMemo::Family::kEnd: {
      const auto comp = estimator.CompOn(l.from, l.micro_batch_size, 1, layers);
      for (int b = 1; b < layers; ++b) {
        row[static_cast<std::size_t>(b)] = comp.Entry(b, layers, l.recompute);
      }
      break;
    }
    case StageRowMemo::Family::kComm: {
      const auto comm = estimator.CommAcross(l.from, l.to, l.micro_batch_size);
      for (int x = 1; x < layers; ++x) {
        const StageCost cost = comm(x);
        row[static_cast<std::size_t>(x)] = {cost.forward, cost.backward, cost.allreduce, 0, 0};
      }
      break;
    }
  }
  return row;
}

/// A row's entries as bit strings, so two rows compare equal only when every
/// bit of every entry agrees.
std::vector<std::string> RowBits(std::span<const RowEntry> row) {
  std::vector<std::string> bits;
  for (const RowEntry& entry : row) bits.push_back(RowEntryBits(entry));
  return bits;
}

/// Config A, B and C, per-server speeds, and a degraded cluster: a dead
/// device drains its server, beside a straggler and a slowed link.
std::vector<topo::Cluster> InputClusters() {
  const topo::Cluster a = topo::MakeConfigA(4);
  fault::ClusterState state = fault::StateAt(fault::FaultScript{}, a, 0.0);
  state.device_dead[9] = true;      // drains server 1
  state.server_compute[2] = 0.5;    // a straggler
  state.server_bandwidth[3] = 0.5;  // a degraded link
  const fault::DegradedCluster degraded = fault::MakeDegradedCluster(a, state);
  EXPECT_TRUE(degraded.feasible);
  EXPECT_FALSE(degraded.cluster.homogeneous());
  return {a, topo::MakeConfigB(16), topo::MakeConfigC(16),
          a.WithServerSpeeds({1.0, 0.5, 1.0, 0.75}), degraded.cluster};
}

std::string CompBits(const CompInputs& inputs) {
  return std::to_string(inputs.group.size) + (inputs.group.single_server ? " one " : " many ") +
         std::to_string(DoubleBits(inputs.slowest_speed));
}

std::string LinkBits(const comm::StageLink& link) {
  return std::to_string(link.from_size) + ">" + std::to_string(link.to_size) +
         (link.intra_server ? " intra" : "") + (link.inter_server ? " inter" : "");
}

TEST(RowInputsFromCounts, MatchTheDeviceSetPathBitForBit) {
  // Random disjoint prefix, carved and free sets, as one subproblem has
  // them: the free set is every device the other two leave, and its counts
  // are the server sizes less theirs. Each set's count-derived CompInputs,
  // and each link's count-derived StageLink, must equal CompInputs::Of and
  // StageLink::Between bit for bit, and name the same dense index.
  std::mt19937_64 rng(32);
  for (const topo::Cluster& cluster : InputClusters()) {
    SCOPED_TRACE(cluster.name() + " on " + std::to_string(cluster.num_devices()) + " devices");
    // Indices map one-to-one to inputs.
    const RowInputs inputs(cluster);
    std::vector<std::string> all;
    for (std::size_t i = 0; i < inputs.num_comp(); ++i) all.push_back(CompBits(inputs.CompAt(i)));
    std::sort(all.begin(), all.end());
    ASSERT_EQ(std::unique(all.begin(), all.end()), all.end());
    for (std::size_t i = 0; i < inputs.num_links(); ++i) {
      ASSERT_EQ(inputs.Link(inputs.LinkAt(i)), i);
    }

    std::vector<std::string> comps;
    std::vector<std::string> links;
    for (int draw = 0; draw < 400; ++draw) {
      std::vector<topo::DeviceId> ids(static_cast<std::size_t>(cluster.num_devices()));
      for (std::size_t d = 0; d < ids.size(); ++d) ids[d] = static_cast<topo::DeviceId>(d);
      std::shuffle(ids.begin(), ids.end(), rng);
      // Small sets on most draws, so single-server sets come up too.
      const int limit = draw % 2 == 0 ? 4 : cluster.num_devices() - 2;
      const auto prefix_size = static_cast<std::size_t>(1 + rng() % static_cast<unsigned>(limit));
      const auto carved_size = static_cast<std::size_t>(
          1 + rng() % std::min<std::size_t>(static_cast<std::size_t>(limit),
                                            ids.size() - prefix_size - 1));
      const topo::DeviceSet prefix({ids.begin(), ids.begin() + prefix_size});
      const topo::DeviceSet carved(
          {ids.begin() + prefix_size, ids.begin() + prefix_size + carved_size});
      std::vector<topo::DeviceId> rest(ids.begin() + prefix_size + carved_size, ids.end());
      std::sort(rest.begin(), rest.end());
      const topo::DeviceSet free(std::move(rest));

      const std::vector<int> prefix_counts = prefix.PerServerCounts(cluster);
      const std::vector<int> carved_counts = carved.PerServerCounts(cluster);
      std::vector<int> free_counts(prefix_counts.size());
      for (std::size_t s = 0; s < free_counts.size(); ++s) {
        free_counts[s] = cluster.gpus_per_server() - prefix_counts[s] - carved_counts[s];
      }
      ASSERT_EQ(free_counts, free.PerServerCounts(cluster));

      const std::pair<const topo::DeviceSet*, const std::vector<int>*> sets[] = {
          {&prefix, &prefix_counts}, {&carved, &carved_counts}, {&free, &free_counts}};
      for (const auto& [set, counts] : sets) {
        const CompInputs of = CompInputs::Of(cluster, *set);
        const std::size_t index = inputs.Comp(*counts);
        ASSERT_EQ(CompBits(inputs.CompAt(index)), CompBits(of)) << set->ToString();
        comps.push_back(CompBits(of));
      }
      for (const auto& [from, from_counts] : sets) {
        for (const auto& [to, to_counts] : sets) {
          if (from == to) continue;
          const comm::StageLink between = comm::StageLink::Between(cluster, *from, *to);
          const std::size_t index = inputs.Link(*from_counts, *to_counts);
          ASSERT_EQ(LinkBits(inputs.LinkAt(index)), LinkBits(between))
              << from->ToString() << " -> " << to->ToString();
          ASSERT_EQ(inputs.Link(between), index);
          links.push_back(LinkBits(between));
        }
      }
    }
    // The draws reach both spans, both link kinds and, where the cluster
    // has them, more than one slowest speed.
    std::sort(comps.begin(), comps.end());
    std::sort(links.begin(), links.end());
    comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    EXPECT_GE(comps.size(), 14u);
    EXPECT_GT(links.size(), 40u);
    if (cluster.gpus_per_server() > 1) {
      EXPECT_TRUE(std::any_of(comps.begin(), comps.end(),
                              [](const std::string& c) { return c.find(" one ") != c.npos; }));
      EXPECT_TRUE(std::any_of(links.begin(), links.end(), [](const std::string& l) {
        return l.find("intra") != l.npos && l.find("inter") == l.npos;
      }));
    }
  }
}

TEST(StageRowMemoRace, RacingLookupsKeepOneBitExactRowPerKey) {
  // Eight threads released together look up the same rows, each in its own
  // order, so fresh keys are filled twice and duplicate inserts race.
  const model::ModelProfile m = model::ModelByName("GNMT-16");
  const topo::Cluster cluster = topo::MakeConfigA(4);
  ASSERT_EQ(cluster.num_devices(), 32);
  const LatencyEstimator estimator(m, cluster);
  const int layers = m.num_layers();

  // Sets inside one server, straddling two, nested and strided. The last
  // two repeat the inputs of the second and the strided set on other
  // devices, so some lookups below name a row another one fills.
  const std::vector<topo::DeviceSet> sets = {
      topo::DeviceSet::Range(0, 1),  topo::DeviceSet::Range(0, 8),
      topo::DeviceSet::Range(4, 8),  topo::DeviceSet::Range(8, 16),
      topo::DeviceSet::Range(0, 32), topo::DeviceSet({1, 9, 17, 25}),
      topo::DeviceSet::Range(16, 8), topo::DeviceSet({26, 2, 18, 10})};
  std::vector<RowLookup> lookups;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (int mbs : {1, 2}) {
      for (bool recompute : {false, true}) {
        for (int anchor : {0, layers / 2}) {
          lookups.push_back({StageRowMemo::Family::kBegin, anchor, sets[i], {}, mbs, recompute});
        }
        lookups.push_back({StageRowMemo::Family::kEnd, 0, sets[i], {}, mbs, recompute});
      }
      lookups.push_back(
          {StageRowMemo::Family::kComm, 0, sets[i], sets[(i + 1) % sets.size()], mbs, false});
    }
  }
  const std::int64_t keys = DistinctKeys(cluster, lookups);
  ASSERT_LT(keys, static_cast<std::int64_t>(lookups.size()));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  StageRowMemo memo(estimator, {1, 2, 3, 4, 5, 6});
  // seen[t][k]: the row thread t got for lookup k; every later round of the
  // same thread, and every other thread, must get that same row.
  std::vector<std::vector<const RowEntry*>> seen(
      kThreads, std::vector<const RowEntry*>(lookups.size(), nullptr));
  std::atomic<bool> go{false};
  std::atomic<bool> stable{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < lookups.size(); ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t) * 11) % lookups.size();
          const RowEntry* row = LookUp(memo, cluster, lookups[k]).data();
          if (seen[t][k] == nullptr) seen[t][k] = row;
          if (seen[t][k] != row) stable = false;
        }
      }
    });
  }
  go = true;
  for (auto& th : threads) th.join();
  EXPECT_TRUE(stable);

  // One row per key, filled once: every thread holds the same row for
  // each lookup, and lookups with equal keys hold the same row.
  EXPECT_EQ(memo.TotalStats().rows, keys);
  for (std::size_t k = 0; k < lookups.size(); ++k) {
    for (int t = 1; t < kThreads; ++t) ASSERT_EQ(seen[t][k], seen[0][k]) << "lookup " << k;
    for (std::size_t o = 0; o < k; ++o) {
      EXPECT_EQ(KeyOf(cluster, lookups[o]) == KeyOf(cluster, lookups[k]), seen[0][o] == seen[0][k])
          << "lookups " << o << " and " << k;
    }
  }

  // Bit-exact rows: each equals a fresh fill of its own lookup's sets.
  const auto row_of = [layers](const RowEntry* row) {
    return std::span<const RowEntry>(row, static_cast<std::size_t>(layers));
  };
  std::vector<std::vector<std::string>> fresh;
  for (std::size_t k = 0; k < lookups.size(); ++k) {
    fresh.push_back(RowBits(FreshRow(estimator, lookups[k])));
    ASSERT_EQ(RowBits(row_of(seen[0][k])), fresh.back()) << "lookup " << k;
  }

  // Thousands of later fills, from four threads, while this thread keeps
  // reading a row it took before them.
  // Each is a fresh key: every (replica count, span) a range of this
  // cluster has, at every anchor and at micro-batch sizes the raced keys
  // do not use.
  const std::span<const RowEntry> early = row_of(seen[0][0]);
  std::vector<topo::DeviceSet> shapes;
  for (int count = 1; count <= cluster.num_devices(); ++count) {
    shapes.push_back(topo::DeviceSet::Range(0, count));
    if (count > 1 && count <= 8) shapes.push_back(topo::DeviceSet::Range(8 - count / 2, count));
  }
  std::vector<RowLookup> later;
  for (int mbs = 3; mbs <= 6; ++mbs) {
    for (int anchor = 0; anchor + 1 < layers; ++anchor) {
      for (const topo::DeviceSet& shape : shapes) {
        later.push_back({StageRowMemo::Family::kBegin, anchor, shape, {}, mbs, false});
      }
    }
  }
  ASSERT_GT(later.size(), 2000u);
  ASSERT_EQ(DistinctKeys(cluster, later), static_cast<std::int64_t>(later.size()));
  constexpr int kInserters = 4;
  std::atomic<int> running{kInserters};
  std::atomic<bool> unchanged{true};
  threads.clear();
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = static_cast<std::size_t>(t); k < later.size(); k += kInserters) {
        LookUp(memo, cluster, later[k]);
      }
      --running;
    });
  }
  while (running.load() > 0) {
    if (RowBits(early) != fresh[0]) unchanged = false;
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(unchanged);
  EXPECT_EQ(memo.TotalStats().rows, keys + static_cast<std::int64_t>(later.size()));
  EXPECT_EQ(LookUp(memo, cluster, lookups[0]).data(), early.data());
  for (std::size_t k = 0; k < lookups.size(); ++k) {
    EXPECT_EQ(LookUp(memo, cluster, lookups[k]).data(), seen[0][k]) << "lookup " << k;
    EXPECT_EQ(RowBits(row_of(seen[0][k])), fresh[k]) << "lookup " << k;
  }
}

TEST(StageRowMemoInputs, EqualInputSetsShareBitExactRowsAndOneChangedInputSplitsThem) {
  // Random device sets, many of which agree in every pricer input without
  // sharing a device. Each lookup's row, whichever set filled it, must be
  // bitwise equal to a fresh fill from that lookup's own sets.
  const model::ModelProfile m = model::ModelByName("GNMT-16");
  const int layers = m.num_layers();
  const std::vector<topo::Cluster> clusters = InputClusters();
  const topo::Cluster& a = clusters[0];
  const topo::Cluster& slowed = clusters[3];
  const topo::Cluster& degraded = clusters[4];

  std::mt19937_64 rng(27);
  for (const topo::Cluster& cluster : clusters) {
    SCOPED_TRACE(cluster.name() + " on " + std::to_string(cluster.num_devices()) + " devices");
    const LatencyEstimator estimator(m, cluster);
    StageRowMemo memo(estimator, {1, 2});
    // Two disjoint sets of one to four devices, as two stages of a plan.
    auto random_sets = [&] {
      std::vector<topo::DeviceId> ids(static_cast<std::size_t>(cluster.num_devices()));
      for (std::size_t d = 0; d < ids.size(); ++d) ids[d] = static_cast<topo::DeviceId>(d);
      std::shuffle(ids.begin(), ids.end(), rng);
      const auto from = static_cast<std::ptrdiff_t>(1 + rng() % 4);
      const auto to = static_cast<std::ptrdiff_t>(1 + rng() % 4);
      return std::pair{topo::DeviceSet({ids.begin(), ids.begin() + from}),
                       topo::DeviceSet({ids.begin() + from, ids.begin() + from + to})};
    };
    // The device ids each row was first handed out for, to count lookups
    // served by a row another set filled.
    std::map<const RowEntry*, std::vector<topo::DeviceId>> first_ids;
    int shared = 0;
    for (int draw = 0; draw < 300; ++draw) {
      const auto [from, to] = random_sets();
      const bool recompute = rng() % 2 == 1;
      const RowLookup lookups[] = {
          {StageRowMemo::Family::kBegin, draw % 2 == 0 ? 0 : layers / 2, from, {}, 2, recompute},
          {StageRowMemo::Family::kEnd, 0, from, {}, 2, recompute},
          {StageRowMemo::Family::kComm, 0, from, to, 2, false}};
      for (const RowLookup& l : lookups) {
        const std::span<const RowEntry> row = LookUp(memo, cluster, l);
        ASSERT_EQ(RowBits(row), RowBits(FreshRow(estimator, l)))
            << "draw " << draw << ": " << l.from.ToString() << " -> " << l.to.ToString();
        std::vector<topo::DeviceId> ids = l.from.devices();
        ids.push_back(-1);
        ids.insert(ids.end(), l.to.devices().begin(), l.to.devices().end());
        const auto [it, fresh] = first_ids.try_emplace(row.data(), ids);
        if (!fresh && it->second != ids) ++shared;
      }
    }
    // The draws really do share rows across different sets.
    EXPECT_GT(shared, 300);
    EXPECT_LT(memo.TotalStats().rows, 300);
  }

  // Sets that differ in exactly one input get different rows. Their prices
  // differ too, except where a slower link already bounds the transfer.
  struct Pair {
    const topo::Cluster* cluster;
    RowLookup first;
    RowLookup second;
    bool same_price = false;
  };
  const auto begin_on = [](topo::DeviceSet set) {
    return RowLookup{StageRowMemo::Family::kBegin, 0, std::move(set), {}, 2, false};
  };
  const auto comm_across = [](topo::DeviceSet from, topo::DeviceSet to) {
    return RowLookup{StageRowMemo::Family::kComm, 0, std::move(from), std::move(to), 2, false};
  };
  const Pair pairs[] = {
      // Span: four replicas on one server or on two.
      {&a, begin_on(topo::DeviceSet::Range(0, 4)), begin_on(topo::DeviceSet({0, 1, 2, 8}))},
      // Slowest device: a full-speed server against a slowed one.
      {&slowed, begin_on(topo::DeviceSet::Range(0, 4)), begin_on(topo::DeviceSet::Range(8, 4))},
      {&degraded, begin_on(topo::DeviceSet::Range(0, 4)),
       begin_on(topo::DeviceSet::Range(8, 4))},
      // Link kinds: intra-server only, inter-server only, and both.
      {&a, comm_across(topo::DeviceSet({0, 1}), topo::DeviceSet({2, 3})),
       comm_across(topo::DeviceSet({0, 1}), topo::DeviceSet({8, 9}))},
      {&a, comm_across(topo::DeviceSet({0, 1}), topo::DeviceSet({2, 3})),
       comm_across(topo::DeviceSet({0, 8}), topo::DeviceSet({1, 9}))},
      {&a, comm_across(topo::DeviceSet({0, 1}), topo::DeviceSet({8, 9})),
       comm_across(topo::DeviceSet({0, 8}), topo::DeviceSet({1, 9})), true},
  };
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.first.from.ToString() + " -> " + pair.first.to.ToString() + " vs " +
                 pair.second.from.ToString() + " -> " + pair.second.to.ToString());
    const LatencyEstimator estimator(m, *pair.cluster);
    StageRowMemo memo(estimator, {1, 2});
    const std::span<const RowEntry> first = LookUp(memo, *pair.cluster, pair.first);
    const std::span<const RowEntry> second = LookUp(memo, *pair.cluster, pair.second);
    EXPECT_NE(first.data(), second.data());
    EXPECT_EQ(RowBits(first) == RowBits(second), pair.same_price);
    EXPECT_EQ(RowBits(first), RowBits(FreshRow(estimator, pair.first)));
    EXPECT_EQ(RowBits(second), RowBits(FreshRow(estimator, pair.second)));
    EXPECT_EQ(memo.TotalStats().rows, 2);
  }
}

}  // namespace
}  // namespace dapple::planner
