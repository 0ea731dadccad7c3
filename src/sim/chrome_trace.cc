#include "sim/chrome_trace.h"

#include <map>
#include <sstream>

#include "obs/json.h"

namespace dapple::sim {

std::string ToChromeTrace(const TaskGraph& graph, const SimResult& result) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  // Process / thread metadata: one "thread" per resource.
  emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"dapple-sim\"}}");
  const int num_resources = std::max(graph.num_resources(), 1);
  for (int r = 0; r < num_resources; ++r) {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << r
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"resource " << r << "\"}}";
    emit(m.str());
  }

  // Complete ("X") events for every executed task.
  for (const TaskRecord& rec : result.records) {
    if (!rec.executed || rec.id == kInvalidTask) continue;
    const Task& task = graph.task(rec.id);
    std::ostringstream e;
    e << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << task.resource << ",\"name\":\""
      << obs::JsonWriter::Escape(TaskName(task)) << "\",\"cat\":\"" << ToString(task.kind)
      << "\",\"ts\":" << rec.start * 1e6 << ",\"dur\":" << (rec.end - rec.start) * 1e6
      << ",\"args\":{\"stage\":" << task.stage << ",\"microbatch\":" << task.microbatch
      << "}}";
    emit(e.str());
  }

  // Flow events: arrows from each cross-stage transfer slice to the compute
  // slices it feeds, so the viewer shows activations/gradients hopping
  // between stage rows. The "s"/"f" pair binds to the enclosing slices by
  // (tid, ts); bp=e attaches the arrow to the consumer's start.
  int flow_id = 0;
  for (const TaskRecord& rec : result.records) {
    if (!rec.executed || rec.id == kInvalidTask) continue;
    const Task& task = graph.task(rec.id);
    if (task.kind != TaskKind::kTransfer) continue;
    for (TaskId succ : graph.successors(rec.id)) {
      const TaskRecord& to = result.records[static_cast<std::size_t>(succ)];
      if (!to.executed || !IsComputeKind(graph.task(succ).kind)) continue;
      std::ostringstream s;
      s << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << task.resource << ",\"id\":" << flow_id
        << ",\"name\":\"xfer\",\"cat\":\"flow\",\"ts\":" << rec.start * 1e6 << "}";
      emit(s.str());
      std::ostringstream f;
      f << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << graph.task(succ).resource
        << ",\"id\":" << flow_id << ",\"name\":\"xfer\",\"cat\":\"flow\",\"ts\":"
        << to.start * 1e6 << "}";
      emit(f.str());
      ++flow_id;
    }
  }

  // Busy-resource occupancy counter, sampled at every task boundary.
  std::map<double, int> deltas;
  for (const TaskRecord& rec : result.records) {
    if (!rec.executed || rec.id == kInvalidTask) continue;
    deltas[rec.start] += 1;
    deltas[rec.end] -= 1;
  }
  int busy = 0;
  for (const auto& [t, d] : deltas) {
    busy += d;
    std::ostringstream e;
    e << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"busy resources\",\"ts\":"
      << t * 1e6 << ",\"args\":{\"busy\":" << busy << "}}";
    emit(e.str());
  }

  // Memory counter events per pool.
  for (std::size_t p = 0; p < result.pools.size(); ++p) {
    for (const MemorySample& sample : result.pools[p].timeline()) {
      std::ostringstream e;
      e << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"pool " << p
        << " bytes\",\"ts\":" << sample.time * 1e6 << ",\"args\":{\"resident\":"
        << sample.bytes << "}}";
      emit(e.str());
    }
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace dapple::sim
