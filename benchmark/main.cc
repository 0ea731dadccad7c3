// dapple_bench_e2e: the repository's end-to-end benchmark program.
//
//   dapple_bench_e2e run --workload W --seed N --seconds S --trace 0|1
//                        [--trace-dir DIR] [--benchmark BENCHMARK.json]
//       One run of one workload. Prints every metric by name with its unit,
//       then, as the last line, one JSON object:
//       {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
//       holding BENCHMARK.json's end_to_end metrics (--trace 0) or its
//       per_layer metrics (--trace 1, which also writes DIR/W.trace.json and
//       DIR/W.layers.json). Exits 1 when any output check failed.
//   dapple_bench_e2e compare BASE.json NEW.json [--benchmark BENCHMARK.json]
//       Compares two results files written by benchmark/run.sh.
//   dapple_bench_e2e host
//       Prints the build's host stamp (nproc, compiler, build type) as JSON.
//   dapple_bench_e2e workloads
//       Lists the workload names, one per line.
//
// benchmark/run.sh builds this binary and is the command to use.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "compare.h"
#include "host_probe.h"
#include "obs/json.h"
#include "serve/json.h"
#include "workloads.h"

namespace dapple::e2e {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Shortest decimal that reads back as exactly `v`.
std::string FullDigits(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

int Usage() {
  std::fprintf(stderr,
               "usage: dapple_bench_e2e run --workload W --seed N --seconds S --trace 0|1\n"
               "                            [--trace-dir DIR] [--benchmark BENCHMARK.json]\n"
               "       dapple_bench_e2e compare BASE.json NEW.json [--benchmark "
               "BENCHMARK.json]\n"
               "       dapple_bench_e2e host | workloads\n");
  return 2;
}

/// Timing a debug or sanitizer build would make every number meaningless.
bool RefuseBuild() {
  const std::string type = DAPPLE_BENCH_BUILD_TYPE;
  const std::string sanitize = DAPPLE_BENCH_SANITIZE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  if (type == "Debug" || !sanitize.empty() || asserts) {
    std::fprintf(stderr,
                 "refusing to time a %s build (sanitizers: '%s'); configure with "
                 "RelWithDebInfo or Release\n",
                 type.c_str(), sanitize.c_str());
    return true;
  }
  return false;
}

int Host() {
  obs::JsonWriter w(obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  w.Field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  w.Field("compiler", DAPPLE_BENCH_COMPILER);
  w.Field("build_type", DAPPLE_BENCH_BUILD_TYPE);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

struct Row {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

/// Median wall and nominal (host_probe.h) seconds of some intervals.
std::pair<double, double> MedianSeconds(const std::vector<Interval>& intervals,
                                        const HostProbe& probe) {
  std::vector<double> wall, nominal;
  for (const Interval& i : intervals) {
    wall.push_back(i.seconds());
    nominal.push_back(probe.NominalSeconds(i.start, i.end));
  }
  return {Median(wall), Median(nominal)};
}

/// BENCHMARK.json's end-to-end metrics, measured from the run. Times are
/// scaled to the host's nominal speed; each note gives the wall time too.
/// `peak_rss_mib` is read before this function builds its own vectors.
std::vector<Row> EndToEndRows(const serve::JsonValue& metrics, const RunResult& result,
                              const HostProbe& probe, double peak_rss_mib) {
  std::vector<Row> rows;
  for (const serve::JsonValue& metric : metrics.AsArray()) {
    Row row{metric.Get("name").AsString(), metric.Get("unit").AsString(), 0.0, ""};
    if (row.name == "setup_s") {
      const auto [wall, nominal] = MedianSeconds(result.setups, probe);
      row.value = nominal;
      row.note = "(median of " + std::to_string(result.setups.size()) + " set-ups; wall " +
                 FullDigits(wall) + " s)";
    } else if (row.name == "throughput") {
      const double nominal = probe.NominalSeconds(result.window.start, result.window.end);
      row.value = static_cast<double>(result.attempted) / nominal;
      row.note = "(" + std::to_string(result.attempted) + " units in " + FullDigits(nominal) +
                 " s; wall " + FullDigits(result.window.seconds()) + " s)";
    } else if (row.name == "latency_p50_ms") {
      const auto [wall, nominal] = MedianSeconds(result.ops, probe);
      row.value = 1e3 * nominal;
      row.note = "(" + std::to_string(result.ops.size()) + " samples; wall " +
                 FullDigits(1e3 * wall) + " ms)";
    } else if (row.name == "peak_rss_mb") {
      row.value = peak_rss_mib;
      row.note = "(VmHWM)";
    } else {
      throw Error("BENCHMARK.json names end-to-end metric '" + row.name +
                  "', which dapple_bench_e2e does not measure");
    }
    rows.push_back(row);
  }
  return rows;
}

/// BENCHMARK.json's per-layer metrics: the workload's own values, else the
/// median (`_us`, `_us_p50`) or p99 (`_us_p99`) of the spans of the same
/// name, else 0 for a layer the workload's operations do not compose.
std::vector<Row> PerLayerRows(const serve::JsonValue& metrics, const RunResult& result,
                              const Tracer& tracer) {
  std::vector<Row> rows;
  for (const serve::JsonValue& metric : metrics.AsArray()) {
    Row row{metric.Get("name").AsString(), metric.Get("unit").AsString(), 0.0, ""};
    const std::string& name = row.name;
    if (const auto it = result.layers.find(name); it != result.layers.end()) {
      row.value = it->second;
    } else if (EndsWith(name, "_us_p50") || EndsWith(name, "_us_p99")) {
      const auto [p50, p99] = tracer.MedianAndP99Us(name.substr(0, name.size() - 7));
      row.value = EndsWith(name, "_p50") ? p50 : p99;
    } else if (EndsWith(name, "_us")) {
      row.value = tracer.MedianAndP99Us(name.substr(0, name.size() - 3)).first;
    }
    rows.push_back(row);
  }
  return rows;
}

int Run(int argc, char** argv) {
  RunOptions options;
  std::string trace_dir = ".";
  std::string benchmark_path = "BENCHMARK.json";
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--benchmark") {
      benchmark_path = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (have_workload && options.workload == w.name) workload = &w;
  }
  if (workload == nullptr || options.seconds <= 0.0) return Usage();
  if (RefuseBuild()) return 2;
  const serve::JsonValue benchmark = ReadJsonFile(benchmark_path);

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Tracer tracer;
  HostProbe probe;
  RunResult result = workload->run(options, tracer);
  const double peak_rss_mib = PeakRssMiB();
  probe.Stop();

  std::vector<Row> rows;
  if (!options.trace) {
    rows = EndToEndRows(benchmark.Get("end_to_end"), result, probe, peak_rss_mib);
  } else {
    result.layers["trace_overhead_pct"] =
        100.0 * result.record_seconds / result.window.seconds();
    result.layers["host.chunk_us"] = 1e6 * probe.MedianChunkSeconds();
    rows = PerLayerRows(benchmark.Get("per_layer"), result, tracer);
    std::filesystem::create_directories(trace_dir);
    const std::string base = trace_dir + "/" + workload->name;
    tracer.WriteChromeTrace(base + ".trace.json",
                            std::string("dapple_bench_e2e ") + workload->name);
    tracer.WriteLayers(base + ".layers.json", workload->name);
    std::printf("trace written to %s.trace.json and %s.layers.json\n", base.c_str(),
                base.c_str());
  }

  for (const Row& row : rows) {
    std::printf("  %-26s %20s %-9s %s\n", row.name.c_str(), FullDigits(row.value).c_str(),
                row.unit.c_str(), row.note.c_str());
  }
  std::printf("checks: %ld attempted, %ld failed\n", result.attempted, result.failed);
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.failed == 0;
  std::string json = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + rows[i].name + "\":{\"value\":" + FullDigits(rows[i].value) +
            ",\"unit\":\"" + rows[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

void RunResult::Fail(const std::string& message, long count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(message);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"plan-cold", RunPlanCold},
      {"serve-hot", RunServeHot},
      {"sim-corpus", RunSimCorpus},
      {"churn-episodes", RunChurnEpisodes},
  };
  return workloads;
}

}  // namespace dapple::e2e

int main(int argc, char** argv) {
  using namespace dapple::e2e;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return Run(argc, argv);
    if (command == "compare") return Compare(argc, argv);
    if (command == "host") return Host();
    if (command == "workloads") {
      for (const Workload& w : Workloads()) std::printf("%s\n", w.name);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dapple_bench_e2e: %s\n", e.what());
    return 2;
  }
  return Usage();
}
