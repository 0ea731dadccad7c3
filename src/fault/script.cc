#include "fault/script.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace dapple::fault {

namespace {

constexpr TimeSec kInf = std::numeric_limits<TimeSec>::infinity();

// RandomFaultScript's event mix: at least one event per script, a crash
// with this probability (at most one per script) and a link degradation
// with the next slice of the roll; everything else is a slowdown.
constexpr int kMinRandomEvents = 1;
constexpr double kCrashProbability = 0.15;
constexpr double kLinkProbability = 0.3;

/// "%.12g" like the JSON writer, so scripts round-trip byte-stably.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// True (with `*out` set) when the whole of `value` is an int in range.
bool WholeInt(const std::string& value, int* out) {
  std::size_t pos = 0;
  try {
    *out = std::stoi(value, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == value.size();
}

/// True (with `*out` set) when the whole of `value` is a finite double.
bool WholeFinite(const std::string& value, double* out) {
  std::size_t pos = 0;
  try {
    *out = std::stod(value, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == value.size() && std::isfinite(*out);
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceSlowdown: return "slowdown";
    case FaultKind::kLinkDegradation: return "degrade";
    case FaultKind::kDeviceCrash: return "crash";
    case FaultKind::kDeviceRejoin: return "rejoin";
  }
  return "?";
}

bool FaultEvent::ActiveAt(TimeSec t) const {
  if (kind == FaultKind::kDeviceCrash) return t >= start;
  if (kind == FaultKind::kDeviceRejoin) return t >= start;
  return t >= start && t < end;
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  os << fault::ToString(kind);
  if (device >= 0) os << " device=" << device;
  if (server >= 0) os << " server=" << server;
  if (kind == FaultKind::kDeviceCrash || kind == FaultKind::kDeviceRejoin) {
    os << " at=" << Num(start);
    return os.str();
  }
  os << " start=" << Num(start);
  if (end != kInf) os << " end=" << Num(end);
  if (kind == FaultKind::kDeviceSlowdown) {
    os << " mult=" << Num(compute_multiplier);
  } else {
    os << " bandwidth=" << Num(bandwidth_multiplier);
    if (extra_latency > 0.0) os << " latency=" << Num(extra_latency);
  }
  return os.str();
}

TimeSec FaultScript::FirstOnset() const {
  TimeSec first = kInf;
  for (const FaultEvent& e : events) first = std::min(first, e.start);
  return events.empty() ? 0.0 : first;
}

bool FaultScript::HasCrash() const {
  return std::any_of(events.begin(), events.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kDeviceCrash;
  });
}

void FaultScript::Validate(const topo::Cluster& cluster) const {
  for (const FaultEvent& e : events) {
    const std::string label = e.ToString();
    DAPPLE_CHECK(e.start >= 0.0) << "negative start: " << label;
    switch (e.kind) {
      case FaultKind::kDeviceSlowdown:
        DAPPLE_CHECK(e.device >= 0 || e.server >= 0)
            << "slowdown needs a device or server target: " << label;
        DAPPLE_CHECK(e.end > e.start) << "empty window: " << label;
        DAPPLE_CHECK(e.compute_multiplier > 0.0 && e.compute_multiplier < 1.0)
            << "slowdown multiplier must be in (0, 1): " << label;
        break;
      case FaultKind::kLinkDegradation:
        DAPPLE_CHECK(e.server >= 0) << "link degradation targets a server: " << label;
        DAPPLE_CHECK(e.end > e.start) << "empty window: " << label;
        DAPPLE_CHECK(e.bandwidth_multiplier > 0.0 && e.bandwidth_multiplier <= 1.0)
            << "bandwidth multiplier must be in (0, 1]: " << label;
        DAPPLE_CHECK(e.extra_latency >= 0.0) << "negative latency: " << label;
        DAPPLE_CHECK(e.bandwidth_multiplier < 1.0 || e.extra_latency > 0.0)
            << "link degradation degrades nothing: " << label;
        break;
      case FaultKind::kDeviceCrash:
        DAPPLE_CHECK(e.device >= 0) << "crash targets a device: " << label;
        break;
      case FaultKind::kDeviceRejoin: {
        DAPPLE_CHECK(e.device >= 0) << "rejoin targets a device: " << label;
        const bool has_outage = std::any_of(
            events.begin(), events.end(), [&](const FaultEvent& c) {
              return c.kind == FaultKind::kDeviceCrash && c.device == e.device &&
                     c.start < e.start;
            });
        DAPPLE_CHECK(has_outage)
            << "rejoin without an earlier crash of the device: " << label;
        break;
      }
    }
    if (e.device >= 0) {
      DAPPLE_CHECK(e.device < cluster.num_devices())
          << "device out of range for " << cluster.name() << ": " << label;
    }
    if (e.server >= 0) {
      DAPPLE_CHECK(e.server < cluster.num_servers())
          << "server out of range for " << cluster.name() << ": " << label;
    }
  }
}

std::string FaultScript::ToString() const {
  std::string out;
  for (const FaultEvent& e : events) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

FaultScript ParseFaultScript(const std::string& text) {
  FaultScript script;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream words(line);
    std::string word;
    if (!(words >> word) || word[0] == '#') continue;

    FaultEvent e;
    if (word == "slowdown") {
      e.kind = FaultKind::kDeviceSlowdown;
    } else if (word == "degrade") {
      e.kind = FaultKind::kLinkDegradation;
      e.end = kInf;
    } else if (word == "crash") {
      e.kind = FaultKind::kDeviceCrash;
      e.end = kInf;
    } else if (word == "rejoin") {
      e.kind = FaultKind::kDeviceRejoin;
      e.end = kInf;
    } else {
      throw Error("fault script line " + std::to_string(line_no) +
                  ": unknown event kind '" + word + "'");
    }
    if (e.kind == FaultKind::kDeviceSlowdown) e.end = kInf;

    while (words >> word) {
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) {
        throw Error("fault script line " + std::to_string(line_no) +
                    ": expected key=value, got '" + word + "'");
      }
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      bool ok = true;
      if (key == "device") {
        ok = WholeInt(value, &e.device);
      } else if (key == "server") {
        ok = WholeInt(value, &e.server);
      } else if (key == "start" || key == "at") {
        ok = WholeFinite(value, &e.start);
      } else if (key == "end") {
        ok = WholeFinite(value, &e.end);
      } else if (key == "mult") {
        ok = WholeFinite(value, &e.compute_multiplier);
      } else if (key == "bandwidth") {
        ok = WholeFinite(value, &e.bandwidth_multiplier);
      } else if (key == "latency") {
        ok = WholeFinite(value, &e.extra_latency);
      } else {
        throw Error("fault script line " + std::to_string(line_no) + ": unknown key '" + key +
                    "'");
      }
      if (!ok) {
        throw Error("fault script line " + std::to_string(line_no) + ": bad number in '" +
                    word + "'");
      }
    }
    script.events.push_back(e);
  }
  return script;
}

TimeSec RejoinTimeAfter(const FaultScript& script, const FaultEvent& crash) {
  TimeSec rejoin = kInf;
  for (const FaultEvent& e : script.events) {
    if (e.kind != FaultKind::kDeviceRejoin || e.device != crash.device) continue;
    if (e.start > crash.start) rejoin = std::min(rejoin, e.start);
  }
  return rejoin;
}

FaultScript RandomFaultScript(std::uint64_t seed, const topo::Cluster& cluster,
                              const RandomFaultOptions& options) {
  Rng rng(seed * 0xd1342543de82ef95ull + 0xaf251af3b0f025b5ull);
  FaultScript script;
  const int count =
      static_cast<int>(rng.UniformInt(kMinRandomEvents, options.max_events));
  bool crashed = false;
  for (int i = 0; i < count; ++i) {
    FaultEvent e;
    const double roll = rng.Uniform(0.0, 1.0);
    if (!crashed && roll < kCrashProbability) {
      e.kind = FaultKind::kDeviceCrash;
      e.device = static_cast<topo::DeviceId>(
          rng.UniformInt(0, cluster.num_devices() - 1));
      // Keep the crash away from t=0 so every policy completes some work
      // first — recovery from "never started" is not an interesting case.
      e.start = rng.Uniform(0.2 * options.horizon, options.horizon);
      e.end = kInf;
      crashed = true;  // at most one crash per script keeps cases analyzable
    } else if (roll < kCrashProbability + kLinkProbability &&
               cluster.num_servers() > 1) {
      e.kind = FaultKind::kLinkDegradation;
      e.server = static_cast<topo::ServerId>(
          rng.UniformInt(0, cluster.num_servers() - 1));
      e.start = rng.Uniform(0.0, 0.8 * options.horizon);
      e.end = e.start + rng.Uniform(0.1 * options.horizon, 0.5 * options.horizon);
      e.bandwidth_multiplier = rng.Uniform(0.2, 0.8);
      e.extra_latency = rng.Bernoulli(0.5) ? rng.Uniform(1e-5, 1e-3) : 0.0;
    } else {
      e.kind = FaultKind::kDeviceSlowdown;
      if (rng.Bernoulli(0.5)) {
        e.server = static_cast<topo::ServerId>(
            rng.UniformInt(0, cluster.num_servers() - 1));
      } else {
        e.device = static_cast<topo::DeviceId>(
            rng.UniformInt(0, cluster.num_devices() - 1));
      }
      e.start = rng.Uniform(0.0, 0.8 * options.horizon);
      e.end = e.start + rng.Uniform(0.1 * options.horizon, 0.5 * options.horizon);
      e.compute_multiplier = rng.Uniform(0.3, 0.9);
    }
    script.events.push_back(e);
  }
  // Deterministic canonical order (generation order is already
  // deterministic; sorting by start makes reports easier to read).
  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.start < b.start; });
  script.Validate(cluster);
  return script;
}

}  // namespace dapple::fault
