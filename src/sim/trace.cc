#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/units.h"

namespace dapple::sim {

namespace {

char GlyphFor(const Task& task) {
  switch (task.kind) {
    case TaskKind::kForward:
      return static_cast<char>('0' + (task.microbatch >= 0 ? task.microbatch % 10 : 0));
    case TaskKind::kBackward:
      return static_cast<char>('a' + (task.microbatch >= 0 ? task.microbatch % 26 : 0));
    case TaskKind::kBackwardWeight:
      return static_cast<char>('A' + (task.microbatch >= 0 ? task.microbatch % 26 : 0));
    case TaskKind::kRecompute: return 'r';
    case TaskKind::kTransfer: return '-';
    case TaskKind::kAllReduce: return '#';
    case TaskKind::kApply: return '=';
    case TaskKind::kGeneric: return '*';
  }
  return '?';
}

}  // namespace

std::string RenderGantt(const TaskGraph& graph, const SimResult& result, int width) {
  width = std::max(width, 10);
  const int num_resources = std::max(graph.num_resources(), 1);
  const TimeSec horizon = std::max(result.makespan, 1e-12);
  std::vector<std::string> lanes(static_cast<std::size_t>(num_resources),
                                 std::string(static_cast<std::size_t>(width), '.'));

  for (const TaskRecord& rec : result.records) {
    if (!rec.executed || rec.id == kInvalidTask) continue;
    const Task& task = graph.task(rec.id);
    if (task.duration <= 0.0) continue;
    auto col = [&](TimeSec t) {
      return std::clamp(static_cast<int>(std::floor(t / horizon * width)), 0, width - 1);
    };
    const int c0 = col(rec.start);
    const int c1 = std::max(col(rec.end - 1e-15), c0);
    for (int c = c0; c <= c1; ++c) {
      lanes[static_cast<std::size_t>(task.resource)][static_cast<std::size_t>(c)] =
          GlyphFor(task);
    }
  }

  std::ostringstream os;
  os << "time -> 0 .. " << FormatTime(result.makespan) << "\n";
  for (int r = 0; r < num_resources; ++r) {
    os << "R" << r << (r < 10 ? " " : "") << " |" << lanes[static_cast<std::size_t>(r)]
       << "|\n";
  }
  return os.str();
}

std::string RenderMemoryTimeline(const MemoryPool& pool, TimeSec horizon, int width,
                                 int height) {
  width = std::max(width, 10);
  height = std::max(height, 2);
  horizon = std::max(horizon, 1e-12);

  // Resident bytes at the start of each column's time slice; the trajectory
  // within a slice is max-sampled so short spikes stay visible.
  std::vector<Bytes> columns(static_cast<std::size_t>(width), 0);
  const auto& samples = pool.timeline();
  std::size_t si = 0;
  Bytes current = 0;
  for (int c = 0; c < width; ++c) {
    const TimeSec t0 = horizon * c / width;
    const TimeSec t1 = horizon * (c + 1) / width;
    Bytes peak_in_slice = current;
    while (si < samples.size() && samples[si].time < t1) {
      if (samples[si].time <= t0) {
        current = samples[si].bytes;
        peak_in_slice = std::max(peak_in_slice, current);
      } else {
        current = samples[si].bytes;
        peak_in_slice = std::max(peak_in_slice, current);
      }
      ++si;
    }
    peak_in_slice = std::max(peak_in_slice, current);
    columns[static_cast<std::size_t>(c)] = peak_in_slice;
  }

  const Bytes max_bytes = std::max<Bytes>(pool.peak(), 1);
  std::ostringstream os;
  os << "peak " << FormatBytes(pool.peak()) << " (baseline " << FormatBytes(pool.baseline())
     << ")\n";
  for (int row = height; row >= 1; --row) {
    const double threshold = static_cast<double>(max_bytes) * row / height;
    os << "  |";
    for (int c = 0; c < width; ++c) {
      os << (static_cast<double>(columns[static_cast<std::size_t>(c)]) >= threshold ? '#'
                                                                                    : ' ');
    }
    os << "|\n";
  }
  os << "  +" << std::string(static_cast<std::size_t>(width), '-') << "+ t="
     << FormatTime(horizon) << "\n";
  return os.str();
}

}  // namespace dapple::sim
