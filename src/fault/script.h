// Deterministic fault scripts (tentpole of the fault-injection subsystem).
// A script is a list of timed fault events against a cluster: transient
// device slowdowns, link bandwidth/latency degradation on a server's NIC,
// and fail-stop device crashes at a simulated time t. Scripts are plain
// data — seeded random generation, a one-line-per-event text format, and
// validation against a concrete cluster all live here; turning a script
// into engine speed profiles is fault/degrade.h's job.
//
// Everything is reproducible: RandomFaultScript derives the whole script
// from one 64-bit seed, so any recovery-policy comparison or fuzz failure
// replays from the seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "topo/cluster.h"

namespace dapple::fault {

enum class FaultKind {
  /// A device (or a whole server) computes at `compute_multiplier` times its
  /// normal speed during [start, end) — a transient straggler.
  kDeviceSlowdown,
  /// A server's network attachment degrades during [start, end): bandwidth
  /// scales by `bandwidth_multiplier`, and every transfer crossing the
  /// server pays `extra_latency` on top.
  kLinkDegradation,
  /// A device fail-stops at `start`. It stays down forever unless a later
  /// kDeviceRejoin of the same device ends the outage.
  kDeviceCrash,
  /// A previously crashed device comes back at `start` (a spot instance
  /// returning, a machine leaving maintenance). The outage it terminates is
  /// the closest earlier crash of the same device; only the elastic-up
  /// recovery policy actually re-admits the hardware, the others keep
  /// treating the crash as permanent in their control-plane view.
  kDeviceRejoin,
};

const char* ToString(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceSlowdown;
  TimeSec start = 0.0;
  /// Window close; ignored for crashes (a crash never ends). Infinity means
  /// the degradation persists to the end of the experiment.
  TimeSec end = 0.0;
  /// Target device (slowdown / crash). -1 when `server` targets a machine.
  topo::DeviceId device = -1;
  /// Target server: every device of the machine for a slowdown, the
  /// machine's network attachment for a link degradation.
  topo::ServerId server = -1;
  double compute_multiplier = 1.0;
  double bandwidth_multiplier = 1.0;
  TimeSec extra_latency = 0.0;

  /// True when the event degrades anything at time t.
  bool ActiveAt(TimeSec t) const;
  /// One-line text form, parseable by ParseFaultScript.
  std::string ToString() const;
};

struct FaultScript {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Earliest event start; 0 when empty.
  TimeSec FirstOnset() const;
  /// True when any event is a crash.
  bool HasCrash() const;
  /// Throws dapple::Error when a target is out of range for the cluster, a
  /// window is inverted, or a multiplier is not in a sane range.
  void Validate(const topo::Cluster& cluster) const;
  /// Line-per-event text form (the same DSL ParseFaultScript reads).
  std::string ToString() const;
};

/// Parses the one-line-per-event DSL. Blank lines and `#` comments are
/// skipped. Lines look like:
///
///   slowdown device=3 start=2.0 end=8.0 mult=0.5
///   slowdown server=1 start=2.0 end=8.0 mult=0.5
///   degrade server=1 start=2.0 end=8.0 bandwidth=0.25 latency=0.001
///   crash device=5 at=12.0
///   rejoin device=5 at=30.0
///
/// Throws dapple::Error on malformed input.
FaultScript ParseFaultScript(const std::string& text);

/// Time the outage opened by `crash` ends: the start of the closest later
/// rejoin of the same device, +inf when the crash is permanent. `crash`
/// must be a kDeviceCrash event of `script`.
TimeSec RejoinTimeAfter(const FaultScript& script, const FaultEvent& crash);

struct RandomFaultOptions {
  /// Events are placed in [0, horizon).
  TimeSec horizon = 60.0;
  /// Each script holds between one and `max_events` events.
  int max_events = 3;
};

/// Seeded random script: slowdown windows (0.3x–0.9x), link degradations
/// (0.2x–0.8x bandwidth plus up to 1 ms extra latency) and, with the stated
/// probability, one fail-stop crash. Identical (seed, cluster shape,
/// options) produce identical scripts.
FaultScript RandomFaultScript(std::uint64_t seed, const topo::Cluster& cluster,
                              const RandomFaultOptions& options = {});

}  // namespace dapple::fault
