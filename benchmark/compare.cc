#include "compare.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "stats.h"

namespace dapple::e2e {

namespace {

/// Per-layer metrics that are deterministic functions of the code and the
/// seed: any difference between two builds is a changed output.
const char* const kExactMetrics[] = {"plan.sim_throughput", "episode.goodput"};

/// One result file (benchmark/run.sh --out), grouped for comparison.
struct Side {
  std::vector<std::string> workloads;  // first-seen order
  /// workload -> metric -> values over untraced runs
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  /// workload -> (failed, attempted) over all runs
  std::map<std::string, std::pair<double, double>> errors;
  /// (workload, seed) -> exact metric -> value, from traced runs
  std::map<std::pair<std::string, std::int64_t>, std::map<std::string, double>> exact;
};

Side Load(const std::string& path) {
  Side side;
  const serve::JsonValue doc = ReadJsonFile(path);
  for (const serve::JsonValue& run : doc.Get("runs").AsArray()) {
    const std::string workload = run.Get("workload").AsString();
    const std::int64_t seed = run.Get("seed").AsInt();
    const bool traced = run.Get("trace").AsInt() != 0;
    const serve::JsonValue& result = run.Get("result");
    if (std::find(side.workloads.begin(), side.workloads.end(), workload) ==
        side.workloads.end()) {
      side.workloads.push_back(workload);
    }
    side.errors[workload].first += result.Get("failed").AsDouble();
    side.errors[workload].second += result.Get("attempted").AsDouble();
    const serve::JsonValue& metrics = result.Get("metrics");
    for (const std::string& name : metrics.Keys()) {
      const double value = metrics.Get(name).Get("value").AsDouble();
      if (!traced) {
        side.values[workload][name].push_back(value);
      } else if (std::find(std::begin(kExactMetrics), std::end(kExactMetrics), name) !=
                 std::end(kExactMetrics)) {
        side.exact[{workload, seed}][name] = value;
      }
    }
  }
  return side;
}

std::string Summary(const std::vector<double>& values) {
  const std::array<double, 3> q = Quartiles(values);
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g [%.6g, %.6g]", Median(values), q[0], q[2]);
  return buf;
}

/// Quartile spread as a share of the median.
double Spread(const std::vector<double>& values) {
  const std::array<double, 3> q = Quartiles(values);
  const double median = Median(values);
  return median != 0.0 ? (q[2] - q[0]) / std::abs(median) : 0.0;
}

}  // namespace

int Compare(int argc, char** argv) {
  std::vector<std::string> files;
  std::string benchmark_path = "BENCHMARK.json";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark_path = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: dapple_bench_e2e compare BASE.json NEW.json "
                         "[--benchmark BENCHMARK.json]\n");
    return 2;
  }
  const serve::JsonValue benchmark = ReadJsonFile(benchmark_path);
  const Side base = Load(files[0]);
  const Side next = Load(files[1]);

  int regressions = 0;
  int unresolved = 0;
  std::printf("%-19s %-15s %-36s %-36s %9s %6s  %s\n", "metric", "workload",
              "base median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict");
  for (const serve::JsonValue& metric : benchmark.Get("end_to_end").AsArray()) {
    const std::string name = metric.Get("name").AsString();
    const bool lower_is_better = metric.Get("better").AsString() == "lower";
    const double bound = metric.Get("bound").AsDouble();
    for (const std::string& workload : base.workloads) {
      const auto b_it = base.values.find(workload);
      const auto n_it = next.values.find(workload);
      if (b_it == base.values.end() || n_it == next.values.end() ||
          !b_it->second.count(name) || !n_it->second.count(name)) {
        continue;
      }
      const std::vector<double>& b = b_it->second.at(name);
      const std::vector<double>& n = n_it->second.at(name);
      const double change = (Median(n) - Median(b)) / Median(b);
      const double worse_by = lower_is_better ? change : -change;
      const bool all_better =
          lower_is_better ? *std::max_element(n.begin(), n.end()) < *std::min_element(b.begin(), b.end())
                          : *std::min_element(n.begin(), n.end()) > *std::max_element(b.begin(), b.end());
      const char* verdict = "same";
      if (std::max(Spread(b), Spread(n)) > bound) {
        verdict = all_better ? "better" : "unresolved";
      } else if (worse_by > bound) {
        verdict = "worse";
      } else if (worse_by < -bound) {
        verdict = "better";
      }
      if (std::string(verdict) == "worse") ++regressions;
      if (std::string(verdict) == "unresolved") ++unresolved;
      std::printf("%-19s %-15s %-36s %-36s %+8.2f%% %5.1f%%  %s\n", name.c_str(),
                  workload.c_str(), Summary(b).c_str(), Summary(n).c_str(), 100.0 * change,
                  100.0 * bound, verdict);
    }
  }

  for (const std::string& workload : base.workloads) {
    if (!next.errors.count(workload)) continue;
    const auto [bf, ba] = base.errors.at(workload);
    const auto [nf, na] = next.errors.at(workload);
    const double b_rate = ba > 0.0 ? bf / ba : 0.0;
    const double n_rate = na > 0.0 ? nf / na : 0.0;
    const bool worse = n_rate > b_rate;
    if (worse) ++regressions;
    std::printf("%-19s %-15s %-36.6g %-36.6g %9s %6s  %s\n", "error_rate", workload.c_str(),
                b_rate, n_rate, "", "0", worse ? "worse" : "same");
  }

  for (const auto& [key, values] : base.exact) {
    const auto it = next.exact.find(key);
    if (it == next.exact.end()) continue;
    for (const auto& [name, value] : values) {
      const auto other = it->second.find(name);
      if (other == it->second.end() || value == 0.0) continue;
      const bool same = other->second == value;
      if (!same) ++regressions;
      std::printf("%-19s %-15s %-36.17g %-36.17g %9s %6s  %s (seed %lld)\n", name.c_str(),
                  key.first.c_str(), value, other->second, "", "exact",
                  same ? "same" : "changed", static_cast<long long>(key.second));
    }
  }

  std::printf("%d regression(s), %d unresolved\n", regressions, unresolved);
  return regressions > 0 ? 1 : 0;
}

}  // namespace dapple::e2e
