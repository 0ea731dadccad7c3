#include "runtime/schedule.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "common/error.h"

namespace dapple::runtime {

const char* ToString(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kDapple: return "DAPPLE";
    case ScheduleKind::kGPipe: return "GPipe";
    case ScheduleKind::kDappleSplitBw: return "DAPPLE-2BP";
    case ScheduleKind::kVMin: return "V-Min";
    case ScheduleKind::kVHalf: return "V-Half";
  }
  return "?";
}

const char* ToString(WarmupPolicy policy) {
  switch (policy) {
    case WarmupPolicy::kPA: return "PA";
    case WarmupPolicy::kPB: return "PB";
  }
  return "?";
}

const std::vector<ScheduleKind>& AllScheduleKinds() {
  static const std::vector<ScheduleKind> kinds = {
      ScheduleKind::kDapple, ScheduleKind::kGPipe, ScheduleKind::kDappleSplitBw,
      ScheduleKind::kVMin, ScheduleKind::kVHalf};
  return kinds;
}

bool ParseScheduleKind(std::string_view name, ScheduleKind* kind) {
  // Canonical form: lowercase with separators dropped, so "V-Min", "v_min"
  // and "vmin" all resolve the same way.
  std::string canon;
  canon.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_' || c == ' ') continue;
    canon += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (canon == "dapple" || canon == "1f1b") {
    *kind = ScheduleKind::kDapple;
  } else if (canon == "gpipe") {
    *kind = ScheduleKind::kGPipe;
  } else if (canon == "dapple2bp" || canon == "2bp" || canon == "splitbw") {
    *kind = ScheduleKind::kDappleSplitBw;
  } else if (canon == "vmin") {
    *kind = ScheduleKind::kVMin;
  } else if (canon == "vhalf") {
    *kind = ScheduleKind::kVHalf;
  } else {
    return false;
  }
  return true;
}

bool IsVShape(ScheduleKind kind) {
  return kind == ScheduleKind::kVMin || kind == ScheduleKind::kVHalf;
}

int HostStage(ScheduleKind kind, int stage, int num_stages) {
  DAPPLE_CHECK(stage >= 0 && stage < num_stages)
      << "stage " << stage << " of " << num_stages;
  if (!IsVShape(kind)) return stage;
  return std::min(stage, num_stages - 1 - stage);
}

int NumGroups(ScheduleKind kind, int num_stages) {
  DAPPLE_CHECK_GT(num_stages, 0);
  if (!IsVShape(kind)) return num_stages;
  return (num_stages + 1) / 2;
}

int VStashCap(ScheduleKind kind, int stage, int num_stages) {
  DAPPLE_CHECK(IsVShape(kind)) << "stash caps exist only for V schedules";
  DAPPLE_CHECK(stage >= 0 && stage < num_stages)
      << "stage " << stage << " of " << num_stages;
  const int remaining = num_stages - stage;
  const int divisor = kind == ScheduleKind::kVMin ? 3 : 2;
  return std::max(1, (remaining + divisor - 1) / divisor);
}

namespace {

/// The V shapes' greedy order (see BuildSchedule in the header).
void BuildVOrder(ScheduleKind kind, int s, int m, PipelineSchedule& out) {
  const int groups = NumGroups(kind, s);

  std::vector<int> cap(static_cast<std::size_t>(s));
  for (int c = 0; c < s; ++c) {
    cap[static_cast<std::size_t>(c)] = std::min(VStashCap(kind, c, s), m);
  }
  std::vector<int> done_fw(static_cast<std::size_t>(s), 0);
  std::vector<int> done_bw(static_cast<std::size_t>(s), 0);

  out.group_orders.resize(static_cast<std::size_t>(groups));
  out.depths.assign(static_cast<std::size_t>(s), 0);

  auto fw_ready = [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    return done_fw[i] < m && (c == 0 || done_fw[i - 1] > done_fw[i]) &&
           done_fw[i] - done_bw[i] < cap[i];
  };
  auto bw_ready = [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    return done_bw[i] < m && done_fw[i] > done_bw[i] &&
           (c + 1 == s || done_bw[i + 1] > done_bw[i]);
  };

  long remaining = 2L * s * m;
  // Every tick issues at least one step (see the deadlock argument at
  // BuildSchedule in the header), so 2SM ticks suffice; the slack is a loud
  // failure mode for a future cap/preference edit that breaks the invariant.
  long tick_budget = 4L * s * m + 16;
  std::vector<ScheduleStep> issued;
  while (remaining > 0) {
    DAPPLE_CHECK_GT(tick_budget--, 0) << "V schedule stalled (S=" << s << " M=" << m << ")";
    issued.clear();
    for (int g = 0; g < groups; ++g) {
      const int early = g;
      const int late = s - 1 - g;
      int pick = -1;
      bool backward = false;
      // Backward before forward (frees a stash slot); the later-hosted
      // chunk before the earlier (its backward unblocks the upstream
      // backward chain, its forward is nearer the V bottom).
      if (late != early && bw_ready(late)) {
        pick = late;
        backward = true;
      } else if (bw_ready(early)) {
        pick = early;
        backward = true;
      } else if (late != early && fw_ready(late)) {
        pick = late;
      } else if (fw_ready(early)) {
        pick = early;
      }
      if (pick < 0) continue;
      const auto i = static_cast<std::size_t>(pick);
      const int micro = backward ? done_bw[i] : done_fw[i];
      out.group_orders[static_cast<std::size_t>(g)].push_back({pick, backward, micro});
      issued.push_back({pick, backward, micro});
    }
    // Readiness was judged against the tick-start state for every group;
    // apply the tick's issues only now so a step cannot enable a same-tick
    // successor (unit-time list-schedule semantics).
    for (const ScheduleStep& step : issued) {
      const auto i = static_cast<std::size_t>(step.stage);
      if (step.is_backward) {
        ++done_bw[i];
      } else {
        ++done_fw[i];
        out.depths[i] = std::max(out.depths[i], done_fw[i] - done_bw[i]);
      }
      --remaining;
    }
  }
}

/// Stage `stage`'s order at warmup depth k (see PipelineSchedule).
std::vector<ScheduleStep> LinearOrder(ScheduleKind kind, int stage, int m, int k) {
  std::vector<ScheduleStep> order;
  const bool split_bw = kind == ScheduleKind::kDappleSplitBw;
  order.reserve(static_cast<std::size_t>((split_bw ? 3 : 2) * m));
  if (kind == ScheduleKind::kGPipe) {
    for (int i = 0; i < m; ++i) order.push_back({stage, false, i});
    for (int i = m - 1; i >= 0; --i) order.push_back({stage, true, i});
    return order;
  }
  // Warmup: K forwards.
  for (int i = 0; i < k; ++i) order.push_back({stage, false, i});
  // Steady: strict one-backward-one-forward round robin. With the 2BP
  // split, the backward-input half keeps 1F1B's slot and the weight half
  // is deferred behind the next forward (the slot a full backward would
  // have blocked), so the drain cascade runs on half-backwards.
  int next_fw = k;
  for (int next_bw = 0; next_bw < m; ++next_bw) {
    order.push_back({stage, true, next_bw});
    if (next_fw < m) order.push_back({stage, false, next_fw++});
    if (split_bw) order.push_back({stage, true, next_bw, true});
  }
  return order;
}

}  // namespace

int WarmupDepth(const ScheduleOptions& options, int stage_index, int num_stages,
                int num_micro_batches, int memory_limit) {
  DAPPLE_CHECK(stage_index >= 0 && stage_index < num_stages)
      << "stage " << stage_index << " of " << num_stages;
  DAPPLE_CHECK_GT(num_micro_batches, 0);
  if (options.kind == ScheduleKind::kGPipe) {
    // GPipe has no early backward: all M forwards are in flight.
    return num_micro_batches;
  }
  if (IsVShape(options.kind)) {
    // The cap is an upper bound; the realized depth comes from
    // BuildSchedule (the greedy order may stay below the cap).
    return std::min(VStashCap(options.kind, stage_index, num_stages), num_micro_batches);
  }
  int k = 0;
  if (options.warmup_override > 0) {
    k = options.warmup_override;
    if (memory_limit > 0) k = std::min(k, memory_limit);
    return std::max(1, std::min(k, num_micro_batches));
  }
  switch (options.warmup) {
    case WarmupPolicy::kPA:
      k = num_stages - stage_index;
      break;
    case WarmupPolicy::kPB:
      k = 2 * (num_stages - stage_index) - 1;
      break;
  }
  if (memory_limit > 0) k = std::min(k, memory_limit);
  k = std::min(k, num_micro_batches);
  return std::max(k, 1);
}

PipelineSchedule BuildSchedule(const ScheduleOptions& options, int num_stages,
                               int num_micro_batches, std::span<const int> memory_limits) {
  DAPPLE_CHECK_GT(num_stages, 0);
  DAPPLE_CHECK_GT(num_micro_batches, 0);
  DAPPLE_CHECK(memory_limits.empty() ||
               memory_limits.size() == static_cast<std::size_t>(num_stages))
      << memory_limits.size() << " memory limits for " << num_stages << " stages";
  PipelineSchedule out;
  if (IsVShape(options.kind)) {
    BuildVOrder(options.kind, num_stages, num_micro_batches, out);
    return out;
  }
  // Warmup depths must be non-increasing along the pipeline: with the
  // interleaved order, stage i's B_m waits on stage i+1's B_m, which sits
  // behind F_{m+K_{i+1}-1} there — a K that grows downstream would deadlock
  // the control chains. Memory clamping can only lower a K, so restoring
  // monotonicity by lowering downstream stages keeps every stage feasible.
  // (The V caps are non-increasing by construction.)
  out.depths.reserve(static_cast<std::size_t>(num_stages));
  out.group_orders.reserve(static_cast<std::size_t>(num_stages));
  for (int i = 0; i < num_stages; ++i) {
    const int limit = memory_limits.empty() ? 0 : memory_limits[static_cast<std::size_t>(i)];
    int k = WarmupDepth(options, i, num_stages, num_micro_batches, limit);
    if (i > 0) k = std::min(k, out.depths.back());
    out.depths.push_back(k);
    out.group_orders.push_back(LinearOrder(options.kind, i, num_micro_batches, k));
  }
  return out;
}

}  // namespace dapple::runtime
