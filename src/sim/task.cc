#include "sim/task.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string_view>

#include "common/error.h"

namespace dapple::sim {

namespace {

/// Concatenates text and decimal integers into a name through one stack
/// buffer: one std::string per name, no temporaries.
template <typename... Pieces>
std::string Concat(const Pieces&... pieces) {
  char buf[64];
  char* end = buf;
  auto append = [&](const auto& piece) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(piece)>>) {
      const std::to_chars_result r = std::to_chars(end, std::end(buf), piece);
      DAPPLE_CHECK(r.ec == std::errc()) << "task name too long";
      end = r.ptr;
    } else {
      const std::string_view text(piece);
      DAPPLE_CHECK_LE(text.size(), static_cast<std::size_t>(std::end(buf) - end))
          << "task name too long";
      end = std::copy(text.begin(), text.end(), end);
    }
  };
  (append(pieces), ...);
  return std::string(buf, end);
}

/// "<prefix><stage> m<micro-batch> G<device>", the compute tasks' form.
std::string ComputeName(const char* prefix, const Task& t) {
  return Concat(prefix, t.stage, " m", t.microbatch, " G", t.device);
}

}  // namespace

const char* ToString(TaskKind kind) {
  switch (kind) {
    case TaskKind::kForward: return "FW";
    case TaskKind::kBackward: return "BW";
    case TaskKind::kBackwardWeight: return "BWW";
    case TaskKind::kRecompute: return "RC";
    case TaskKind::kTransfer: return "TX";
    case TaskKind::kAllReduce: return "AR";
    case TaskKind::kApply: return "AP";
    case TaskKind::kGeneric: return "..";
  }
  return "?";
}

std::string TaskName(const Task& task) {
  switch (task.kind) {
    case TaskKind::kForward: return ComputeName("FW s", task);
    case TaskKind::kBackward:
      return ComputeName(task.variant == TaskVariant::kBackwardInput ? "BI s" : "BW s", task);
    case TaskKind::kBackwardWeight: return ComputeName("BWW s", task);
    case TaskKind::kRecompute: return ComputeName("RC s", task);
    case TaskKind::kTransfer:
      if (task.variant == TaskVariant::kGradient) {
        return Concat("TXb ", task.stage + 1, "->", task.stage, " m", task.microbatch);
      }
      return Concat("TXf ", task.stage, "->", task.stage + 1, " m", task.microbatch);
    case TaskKind::kAllReduce: return Concat("AR s", task.stage);
    case TaskKind::kApply: return Concat("APPLY s", task.stage, " G", task.device);
    case TaskKind::kGeneric: break;
  }
  return Concat("task ", task.id);
}

bool IsComputeKind(TaskKind kind) {
  switch (kind) {
    case TaskKind::kForward:
    case TaskKind::kBackward:
    case TaskKind::kBackwardWeight:
    case TaskKind::kRecompute:
    case TaskKind::kApply:
      return true;
    default:
      return false;
  }
}

}  // namespace dapple::sim
