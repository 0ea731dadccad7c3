// Chrome trace-event export: serializes a simulation into the JSON format
// understood by chrome://tracing and Perfetto, with one row per resource
// (device compute engines, transfer channels, AllReduce lanes). The
// release-grade way to inspect schedules beyond the ASCII Gantt.
#pragma once

#include <string>

#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {

/// Renders the executed graph as a Chrome trace JSON document (the
/// "traceEvents" array format) of process "dapple-sim": a complete event
/// per executed task, flow arrows from each cross-stage transfer to the
/// compute tasks it feeds, a busy-resource occupancy counter and per-pool
/// memory counters. Durations are emitted in microseconds of simulated
/// time.
std::string ToChromeTrace(const TaskGraph& graph, const SimResult& result);

}  // namespace dapple::sim
