// Tests for the micro-batch schedules (paper SIII / SV-C): warmup depths
// PA/PB, the early-backward interleave, and the GPipe baseline order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "common/error.h"
#include "common/fingerprint.h"
#include "runtime/schedule.h"

namespace dapple::runtime {
namespace {

ScheduleOptions Dapple(WarmupPolicy warmup = WarmupPolicy::kPA) {
  ScheduleOptions o;
  o.kind = ScheduleKind::kDapple;
  o.warmup = warmup;
  return o;
}

ScheduleOptions GPipe() {
  ScheduleOptions o;
  o.kind = ScheduleKind::kGPipe;
  return o;
}

// Stage i's order with no memory limit: group i's order of a linear
// family.
std::vector<ScheduleStep> Order(const ScheduleOptions& options, int stage, int stages,
                                int m_total) {
  return BuildSchedule(options, stages, m_total).group_orders[static_cast<std::size_t>(stage)];
}

TEST(WarmupDepth, PolicyAFormula) {
  // PA: Ki = min(S - i, D) for 4 stages, M large, no memory limit.
  EXPECT_EQ(WarmupDepth(Dapple(), 0, 4, 100, 0), 4);
  EXPECT_EQ(WarmupDepth(Dapple(), 1, 4, 100, 0), 3);
  EXPECT_EQ(WarmupDepth(Dapple(), 3, 4, 100, 0), 1);
}

TEST(WarmupDepth, PolicyBFormula) {
  // PB: Ki = min(2(S - i) - 1, D).
  EXPECT_EQ(WarmupDepth(Dapple(WarmupPolicy::kPB), 0, 4, 100, 0), 7);
  EXPECT_EQ(WarmupDepth(Dapple(WarmupPolicy::kPB), 1, 4, 100, 0), 5);
  EXPECT_EQ(WarmupDepth(Dapple(WarmupPolicy::kPB), 3, 4, 100, 0), 1);
}

TEST(WarmupDepth, MemoryLimitClamps) {
  EXPECT_EQ(WarmupDepth(Dapple(WarmupPolicy::kPB), 0, 4, 100, 2), 2);
  EXPECT_EQ(WarmupDepth(Dapple(), 0, 8, 100, 3), 3);
}

TEST(WarmupDepth, ClampedByMicroBatchCount) {
  EXPECT_EQ(WarmupDepth(Dapple(), 0, 8, 2, 0), 2);
}

TEST(WarmupDepth, GPipeInjectsEverything) {
  EXPECT_EQ(WarmupDepth(GPipe(), 0, 4, 10, 0), 10);
  EXPECT_EQ(WarmupDepth(GPipe(), 3, 4, 10, 2), 10);  // GPipe ignores D
}

TEST(WarmupDepth, ValidatesStageIndex) {
  EXPECT_THROW(WarmupDepth(Dapple(), 4, 4, 10, 0), dapple::Error);
  EXPECT_THROW(WarmupDepth(Dapple(), -1, 4, 10, 0), dapple::Error);
}

// Every order must contain each micro-batch exactly once forward and once
// backward, with FW m before BW m.
void CheckValidOrder(const std::vector<ScheduleStep>& order, int m_total) {
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * m_total));
  std::vector<int> fw_pos(static_cast<std::size_t>(m_total), -1);
  std::vector<int> bw_pos(static_cast<std::size_t>(m_total), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto& slot = order[i].is_backward ? bw_pos : fw_pos;
    ASSERT_GE(order[i].microbatch, 0);
    ASSERT_LT(order[i].microbatch, m_total);
    ASSERT_EQ(slot[static_cast<std::size_t>(order[i].microbatch)], -1);
    slot[static_cast<std::size_t>(order[i].microbatch)] = static_cast<int>(i);
  }
  for (int m = 0; m < m_total; ++m) {
    EXPECT_LT(fw_pos[static_cast<std::size_t>(m)], bw_pos[static_cast<std::size_t>(m)]);
  }
}

TEST(StageOrder, DappleInterleavesAfterWarmup) {
  // S=2, stage 0, M=6, K=2: F0 F1 B0 F2 B1 F3 B2 F4 B3 F5 B4 B5.
  const auto order = Order(Dapple(), 0, 2, 6);
  CheckValidOrder(order, 6);
  EXPECT_FALSE(order[0].is_backward);
  EXPECT_FALSE(order[1].is_backward);
  EXPECT_TRUE(order[2].is_backward);
  EXPECT_EQ(order[2].microbatch, 0);
  EXPECT_FALSE(order[3].is_backward);
  EXPECT_EQ(order[3].microbatch, 2);
}

TEST(StageOrder, LastStageIsStrict1F1B) {
  // K = 1 at the last stage: F0 B0 F1 B1 ...
  const auto order = Order(Dapple(), 1, 2, 4);
  CheckValidOrder(order, 4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].is_backward, i % 2 == 1);
    EXPECT_EQ(order[i].microbatch, static_cast<int>(i / 2));
  }
}

TEST(StageOrder, GPipeAllForwardThenReverseBackward) {
  const auto order = Order(GPipe(), 0, 3, 4);
  CheckValidOrder(order, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(order[static_cast<std::size_t>(i)].is_backward);
    EXPECT_EQ(order[static_cast<std::size_t>(i)].microbatch, i);
  }
  // Backward in LIFO order: 3, 2, 1, 0.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(order[static_cast<std::size_t>(4 + i)].is_backward);
    EXPECT_EQ(order[static_cast<std::size_t>(4 + i)].microbatch, 3 - i);
  }
}

TEST(StageOrder, InFlightNeverExceedsWarmupDepth) {
  // The defining property of early backward scheduling: at most K
  // activations are live at any point in the order.
  for (int stages : {2, 4, 8}) {
    for (int m_total : {4, 16, 64}) {
      for (auto policy : {WarmupPolicy::kPA, WarmupPolicy::kPB}) {
        for (int i = 0; i < stages; ++i) {
          const int k = WarmupDepth(Dapple(policy), i, stages, m_total, 0);
          const auto order = Order(Dapple(policy), i, stages, m_total);
          int live = 0, max_live = 0;
          for (const ScheduleStep& step : order) {
            live += step.is_backward ? -1 : 1;
            max_live = std::max(max_live, live);
          }
          EXPECT_EQ(max_live, std::min(k, m_total))
              << "S=" << stages << " M=" << m_total << " i=" << i;
        }
      }
    }
  }
}

TEST(StageOrder, GPipeInFlightIsM) {
  const auto order = Order(GPipe(), 0, 4, 16);
  int live = 0, max_live = 0;
  for (const ScheduleStep& step : order) {
    live += step.is_backward ? -1 : 1;
    max_live = std::max(max_live, live);
  }
  EXPECT_EQ(max_live, 16);
}

TEST(StageOrder, SingleMicroBatchDegenerates) {
  for (auto kind : {ScheduleKind::kDapple, ScheduleKind::kGPipe}) {
    ScheduleOptions o;
    o.kind = kind;
    const auto order = Order(o, 0, 2, 1);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_FALSE(order[0].is_backward);
    EXPECT_TRUE(order[1].is_backward);
  }
}

TEST(Names, ToStringStable) {
  EXPECT_STREQ(ToString(ScheduleKind::kDapple), "DAPPLE");
  EXPECT_STREQ(ToString(ScheduleKind::kGPipe), "GPipe");
  EXPECT_STREQ(ToString(ScheduleKind::kDappleSplitBw), "DAPPLE-2BP");
  EXPECT_STREQ(ToString(ScheduleKind::kVMin), "V-Min");
  EXPECT_STREQ(ToString(ScheduleKind::kVHalf), "V-Half");
  EXPECT_STREQ(ToString(WarmupPolicy::kPA), "PA");
  EXPECT_STREQ(ToString(WarmupPolicy::kPB), "PB");
}

// ToString → Parse is a fixed point for every enum value, and the parse is
// case-insensitive, so `dapple plan --schedule v-min` (or V-MIN, or vmin)
// always lands on the kind whose reports print "V-Min".
TEST(Names, ParseToStringFixedPointForEveryKind) {
  for (ScheduleKind kind : AllScheduleKinds()) {
    const std::string name = ToString(kind);
    ScheduleKind parsed = ScheduleKind::kGPipe;
    ASSERT_TRUE(ParseScheduleKind(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;

    std::string lower = name, upper = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (const std::string& variant : {lower, upper}) {
      parsed = ScheduleKind::kGPipe;
      ASSERT_TRUE(ParseScheduleKind(variant, &parsed)) << variant;
      EXPECT_EQ(parsed, kind) << variant;
    }
  }
}

TEST(Names, ParseAcceptsCliAliases) {
  const struct {
    const char* name;
    ScheduleKind want;
  } cases[] = {
      {"dapple", ScheduleKind::kDapple},
      {"1f1b", ScheduleKind::kDapple},
      {"gpipe", ScheduleKind::kGPipe},
      {"dapple-2bp", ScheduleKind::kDappleSplitBw},
      {"dapple_2bp", ScheduleKind::kDappleSplitBw},
      {"2bp", ScheduleKind::kDappleSplitBw},
      {"split-bw", ScheduleKind::kDappleSplitBw},
      {"splitbw", ScheduleKind::kDappleSplitBw},
      {"v-min", ScheduleKind::kVMin},
      {"vmin", ScheduleKind::kVMin},
      {"V-MIN", ScheduleKind::kVMin},
      {"v-half", ScheduleKind::kVHalf},
      {"vhalf", ScheduleKind::kVHalf},
      {"V_Half", ScheduleKind::kVHalf},
  };
  for (const auto& c : cases) {
    ScheduleKind parsed = ScheduleKind::kGPipe;
    ASSERT_TRUE(ParseScheduleKind(c.name, &parsed)) << c.name;
    EXPECT_EQ(parsed, c.want) << c.name;
  }
}

TEST(Names, ParseRejectsUnknownAndLeavesKindUntouched) {
  ScheduleKind parsed = ScheduleKind::kVHalf;
  EXPECT_FALSE(ParseScheduleKind("pipedream", &parsed));
  EXPECT_FALSE(ParseScheduleKind("", &parsed));
  EXPECT_FALSE(ParseScheduleKind("v", &parsed));
  EXPECT_EQ(parsed, ScheduleKind::kVHalf);
}

ScheduleOptions SplitBw(WarmupPolicy warmup = WarmupPolicy::kPA) {
  ScheduleOptions o;
  o.kind = ScheduleKind::kDappleSplitBw;
  o.warmup = warmup;
  return o;
}

// A split-backward order must contain FW m, BI m (is_backward, not
// weight_grad) and BWW m (is_backward and weight_grad) exactly once per
// micro-batch, with FW m < BI m < BWW m.
void CheckValidSplitOrder(const std::vector<ScheduleStep>& order, int m_total) {
  ASSERT_EQ(order.size(), static_cast<std::size_t>(3 * m_total));
  std::vector<int> fw_pos(static_cast<std::size_t>(m_total), -1);
  std::vector<int> bi_pos(static_cast<std::size_t>(m_total), -1);
  std::vector<int> bww_pos(static_cast<std::size_t>(m_total), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ScheduleStep& step = order[i];
    ASSERT_GE(step.microbatch, 0);
    ASSERT_LT(step.microbatch, m_total);
    if (step.weight_grad) {
      ASSERT_TRUE(step.is_backward);
    }
    auto& slot = !step.is_backward ? fw_pos : (step.weight_grad ? bww_pos : bi_pos);
    ASSERT_EQ(slot[static_cast<std::size_t>(step.microbatch)], -1);
    slot[static_cast<std::size_t>(step.microbatch)] = static_cast<int>(i);
  }
  for (int m = 0; m < m_total; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    EXPECT_LT(fw_pos[mi], bi_pos[mi]) << "m=" << m;
    EXPECT_LT(bi_pos[mi], bww_pos[mi]) << "m=" << m;
  }
}

TEST(StageOrder, SplitBwSteadyPatternIsBiFwBww) {
  // S=2, stage 0, M=6, K=2: F0 F1 | B0 F2 W0 | B1 F3 W1 | ... — each round
  // the backward-input half runs first (the downstream stage waits on it),
  // the next forward fills the slot, and the weight half trails.
  const auto order = Order(SplitBw(), 0, 2, 6);
  CheckValidSplitOrder(order, 6);
  EXPECT_FALSE(order[0].is_backward);
  EXPECT_FALSE(order[1].is_backward);
  EXPECT_TRUE(order[2].is_backward);
  EXPECT_FALSE(order[2].weight_grad);
  EXPECT_EQ(order[2].microbatch, 0);
  EXPECT_FALSE(order[3].is_backward);
  EXPECT_EQ(order[3].microbatch, 2);
  EXPECT_TRUE(order[4].weight_grad);
  EXPECT_EQ(order[4].microbatch, 0);
}

TEST(StageOrder, SplitBwInFlightTransientIsWarmupPlusOne) {
  // Activations are freed by the weight half, which trails the forward that
  // fills the 1F1B slot — so the stash briefly holds K+1 micro-batches.
  for (int stages : {2, 4}) {
    for (int m_total : {4, 16}) {
      for (int i = 0; i < stages; ++i) {
        const int k = WarmupDepth(SplitBw(), i, stages, m_total, 0);
        const auto order = Order(SplitBw(), i, stages, m_total);
        int live = 0, max_live = 0;
        for (const ScheduleStep& step : order) {
          if (!step.is_backward) ++live;
          if (step.weight_grad) --live;  // BWW frees; BI does not
          max_live = std::max(max_live, live);
        }
        EXPECT_LE(max_live, std::min(k, m_total) + 1)
            << "S=" << stages << " M=" << m_total << " i=" << i;
        EXPECT_GE(max_live, std::min(k, m_total));
      }
    }
  }
}

// Every V group order must run each hosted (chunk, micro-batch) pair once
// forward and once backward with FW first, and the realized per-chunk
// stash depth must respect min(VStashCap, M).
void CheckVSchedule(ScheduleKind kind, int stages, int m_total) {
  SCOPED_TRACE(testing::Message() << ToString(kind) << " S=" << stages
                                  << " M=" << m_total);
  ScheduleOptions options;
  options.kind = kind;
  const PipelineSchedule v = BuildSchedule(options, stages, m_total);
  ASSERT_EQ(v.group_orders.size(),
            static_cast<std::size_t>(NumGroups(kind, stages)));
  ASSERT_EQ(v.depths.size(), static_cast<std::size_t>(stages));
  for (int g = 0; g < NumGroups(kind, stages); ++g) {
    std::vector<int> hosted;
    for (int c = 0; c < stages; ++c) {
      if (HostStage(kind, c, stages) == g) hosted.push_back(c);
    }
    const auto& order = v.group_orders[static_cast<std::size_t>(g)];
    ASSERT_EQ(order.size(), hosted.size() * 2 * static_cast<std::size_t>(m_total));
    for (int c : hosted) {
      std::vector<int> fw_pos(static_cast<std::size_t>(m_total), -1);
      std::vector<int> bw_pos(static_cast<std::size_t>(m_total), -1);
      int live = 0, max_live = 0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i].stage != c) continue;
        ASSERT_GE(order[i].microbatch, 0);
        ASSERT_LT(order[i].microbatch, m_total);
        auto& slot = order[i].is_backward ? bw_pos : fw_pos;
        ASSERT_EQ(slot[static_cast<std::size_t>(order[i].microbatch)], -1);
        slot[static_cast<std::size_t>(order[i].microbatch)] = static_cast<int>(i);
        live += order[i].is_backward ? -1 : 1;
        max_live = std::max(max_live, live);
      }
      for (int m = 0; m < m_total; ++m) {
        EXPECT_LT(fw_pos[static_cast<std::size_t>(m)],
                  bw_pos[static_cast<std::size_t>(m)])
            << "chunk " << c << " m=" << m;
      }
      const int cap = std::min(VStashCap(kind, c, stages), m_total);
      EXPECT_LE(max_live, cap) << "chunk " << c;
      EXPECT_EQ(max_live, v.depths[static_cast<std::size_t>(c)]) << "chunk " << c;
    }
  }
}

TEST(VSchedule, OrdersAreValidAcrossTheGrid) {
  for (ScheduleKind kind : {ScheduleKind::kVMin, ScheduleKind::kVHalf}) {
    for (int stages = 1; stages <= 8; ++stages) {
      for (int m_total : {1, 2, 4, 8, 16}) {
        CheckVSchedule(kind, stages, m_total);
      }
    }
  }
}

TEST(VSchedule, FoldingPairsFirstAndLastChunks) {
  EXPECT_EQ(NumGroups(ScheduleKind::kVMin, 4), 2);
  EXPECT_EQ(NumGroups(ScheduleKind::kVMin, 5), 3);
  EXPECT_EQ(NumGroups(ScheduleKind::kDapple, 4), 4);
  EXPECT_EQ(HostStage(ScheduleKind::kVMin, 0, 4), 0);
  EXPECT_EQ(HostStage(ScheduleKind::kVMin, 3, 4), 0);
  EXPECT_EQ(HostStage(ScheduleKind::kVMin, 1, 4), 1);
  EXPECT_EQ(HostStage(ScheduleKind::kVMin, 2, 4), 1);
  EXPECT_EQ(HostStage(ScheduleKind::kVMin, 2, 5), 2);  // middle chunk alone
  EXPECT_EQ(HostStage(ScheduleKind::kDapple, 3, 4), 3);
  EXPECT_TRUE(IsVShape(ScheduleKind::kVMin));
  EXPECT_TRUE(IsVShape(ScheduleKind::kVHalf));
  EXPECT_FALSE(IsVShape(ScheduleKind::kDappleSplitBw));
}

TEST(VSchedule, StashCapsMatchTheMemoryDivisor) {
  // V-Half: ceil((S-c)/2); V-Min: ceil((S-c)/3); both floored at 1.
  EXPECT_EQ(VStashCap(ScheduleKind::kVHalf, 0, 6), 3);
  EXPECT_EQ(VStashCap(ScheduleKind::kVHalf, 3, 6), 2);
  EXPECT_EQ(VStashCap(ScheduleKind::kVHalf, 5, 6), 1);
  EXPECT_EQ(VStashCap(ScheduleKind::kVMin, 0, 6), 2);
  EXPECT_EQ(VStashCap(ScheduleKind::kVMin, 3, 6), 1);
  EXPECT_EQ(VStashCap(ScheduleKind::kVMin, 0, 12), 4);
  EXPECT_EQ(VStashCap(ScheduleKind::kVHalf, 0, 12), 6);
}

// Pins every depth and every group order over the five kinds x PA/PB x
// warmup_override {0, 2}, S 1-8 x M 1-12, and four memory-limit shapes:
// none, all 1, decreasing, and growing downstream (where the
// non-increasing clamp bites). A schedule change that moves a step moves
// the digest.
TEST(Schedule, DigestIsPinned) {
  Fingerprint64 fp;
  for (ScheduleKind kind : AllScheduleKinds()) {
    for (WarmupPolicy policy : {WarmupPolicy::kPA, WarmupPolicy::kPB}) {
      for (int override_k : {0, 2}) {
        ScheduleOptions options;
        options.kind = kind;
        options.warmup = policy;
        options.warmup_override = override_k;
        for (int stages = 1; stages <= 8; ++stages) {
          std::vector<std::vector<int>> limit_sets(4);
          for (int i = 0; i < stages; ++i) {
            limit_sets[1].push_back(1);
            limit_sets[2].push_back(stages - i);  // decreasing
            limit_sets[3].push_back(i + 2);       // growing downstream
          }
          for (int m_total = 1; m_total <= 12; ++m_total) {
            for (const std::vector<int>& limits : limit_sets) {
              const PipelineSchedule s = BuildSchedule(options, stages, m_total, limits);
              fp.Mix(static_cast<std::uint64_t>(s.depths.size()));
              for (int k : s.depths) fp.Mix(k);
              fp.Mix(static_cast<std::uint64_t>(s.group_orders.size()));
              for (const std::vector<ScheduleStep>& order : s.group_orders) {
                fp.Mix(static_cast<std::uint64_t>(order.size()));
                for (const ScheduleStep& step : order) {
                  fp.Mix(step.stage).Mix(step.is_backward).Mix(step.microbatch).Mix(
                      step.weight_grad);
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(FingerprintToString(fp.digest()), "fp:7fc196a572021281");
}

}  // namespace
}  // namespace dapple::runtime
