// Trace rendering: ASCII Gantt charts of pipeline schedules (the shape of
// paper Figs. 3, 4, 7, 8) and memory-over-time plots (Fig. 3(c)). These are
// diagnostics for examples/benches, not part of the simulation itself.
#pragma once

#include <string>

#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {

/// Renders one lane per resource, one glyph per task kind:
///   forward            micro-batch index mod 10 as a digit ('0'..'9')
///   backward           micro-batch index mod 26 as a lowercase letter (0->'a');
///                      under 2BP this is the backward-input half
///   backward-weight    micro-batch index mod 26 as an uppercase letter (0->'A')
///   recompute 'r', transfer '-', allreduce '#', apply '=', generic '*'
/// Idle time is '.'.
std::string RenderGantt(const TaskGraph& graph, const SimResult& result, int width = 100);

/// Renders a pool's resident-bytes trajectory as a `height`-row bar plot
/// with a byte-scale legend.
std::string RenderMemoryTimeline(const MemoryPool& pool, TimeSec horizon, int width = 80,
                                 int height = 8);

}  // namespace dapple::sim
