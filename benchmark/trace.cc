#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "common/error.h"
#include "obs/json.h"

namespace dapple::e2e {

namespace {

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw Error("cannot write " + path);
}

}  // namespace

std::int64_t SpanBuffer::Add(const char* name, Clock::time_point start, Clock::time_point end,
                             std::int64_t op, std::int64_t parent) {
  const std::int64_t id = (static_cast<std::int64_t>(thread_) << 40) | next_++;
  spans_.push_back(Span{name, id, parent, op, start, end, thread_});
  return id;
}

SpanBuffer& Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(static_cast<int>(buffers_.size())));
  return *buffers_.back();
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans().begin(), buffer->spans().end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Span& a, const Span& b) { return a.start < b.start; });
  return all;
}

std::vector<LayerSummary> Tracer::Layers() const {
  const std::vector<Span> spans = Spans();
  std::map<std::int64_t, double> op_seconds;  // operation span id -> duration
  double all_ops = 0.0;
  for (const Span& s : spans) {
    if (s.parent >= 0) continue;
    op_seconds[s.id] = s.seconds();
    all_ops += s.seconds();
  }

  struct Acc {
    std::vector<double> us;
    double total = 0.0;
    bool is_op = false;
    std::set<std::int64_t> parents;
  };
  std::map<std::string, Acc> by_name;
  for (const Span& s : spans) {
    Acc& acc = by_name[s.name];
    acc.us.push_back(s.seconds() * 1e6);
    acc.total += s.seconds();
    acc.is_op = s.parent < 0;
    if (s.parent >= 0) acc.parents.insert(s.parent);
  }

  std::vector<LayerSummary> out;
  for (const auto& [name, acc] : by_name) {
    double base = all_ops;
    if (!acc.is_op) {
      base = 0.0;
      for (std::int64_t parent : acc.parents) {
        const auto it = op_seconds.find(parent);
        if (it != op_seconds.end()) base += it->second;
      }
    }
    out.push_back(LayerSummary{name, static_cast<long>(acc.us.size()), acc.total,
                               Percentile(acc.us, 50), Percentile(acc.us, 99),
                               base > 0.0 ? acc.total / base : 0.0});
  }
  return out;
}

std::pair<double, double> Tracer::MedianAndP99Us(const std::string& name) const {
  std::vector<double> us;
  for (const Span& s : Spans()) {
    if (name == s.name) us.push_back(s.seconds() * 1e6);
  }
  return {Percentile(us, 50), Percentile(us, 99)};
}

void Tracer::WriteChromeTrace(const std::string& path, const std::string& process_name) const {
  std::string text = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const obs::JsonWriter& w) {
    text += first ? "\n" : ",\n";
    first = false;
    text += w.str();
  };
  {
    obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
    w.BeginObject().Field("ph", "M").Field("pid", 1).Field("name", "process_name");
    w.Key("args").BeginObject().Field("name", process_name).EndObject();
    w.EndObject();
    emit(w);
  }
  int threads = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads = static_cast<int>(buffers_.size());
  }
  for (int t = 0; t < threads; ++t) {
    obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
    w.BeginObject().Field("ph", "M").Field("pid", 1).Field("tid", t);
    w.Field("name", "thread_name");
    w.Key("args").BeginObject().Field("name", "thread " + std::to_string(t)).EndObject();
    w.EndObject();
    emit(w);
  }
  for (const Span& s : Spans()) {
    obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
    w.BeginObject().Field("ph", "X").Field("pid", 1).Field("tid", s.thread);
    w.Field("name", s.name).Field("cat", s.parent < 0 ? "operation" : "replay");
    w.Field("ts", SecondsBetween(epoch_, s.start) * 1e6).Field("dur", s.seconds() * 1e6);
    w.Key("args").BeginObject();
    w.Field("span", static_cast<std::int64_t>(s.id));
    w.Field("parent", static_cast<std::int64_t>(s.parent));
    w.Field("op", static_cast<std::int64_t>(s.op));
    w.EndObject().EndObject();
    emit(w);
  }
  text += "\n]}\n";
  WriteFile(path, text);
}

void Tracer::WriteLayers(const std::string& path, const std::string& workload) const {
  obs::JsonWriter w;
  w.BeginObject().Field("workload", workload);
  w.Key("layers").BeginArray();
  for (const LayerSummary& layer : Layers()) {
    w.BeginObject();
    w.Field("name", layer.name);
    w.Field("calls", static_cast<std::int64_t>(layer.calls));
    w.Field("total_s", layer.total_seconds);
    w.Field("p50_us", layer.p50_us);
    w.Field("p99_us", layer.p99_us);
    w.Field("share", layer.share);
    w.EndObject();
  }
  w.EndArray().EndObject();
  WriteFile(path, w.str() + "\n");
}

}  // namespace dapple::e2e
