// dapple_fuzz — seeded randomized differential tester, one binary for every
// fuzz mode (check/fuzz.h, scenario/fuzz.h).
//
//   dapple_fuzz [MODE] [--iterations N] [--seed BASE] [--verbose] [--threads N]
//       Run N seeded cases (default 200) starting at BASE (default 0);
//       print the mode's tally and exit non-zero on the first failure
//       (lowest failing seed). --threads fans cases across a
//       ThreadPool; every tally line and failure report is identical
//       at any N. --verbose first prints every case description.
//   dapple_fuzz [MODE] --repro SEED
//       Re-run one seed with its full case description.
//
// MODE picks what each seed derives and checks:
//   (none)        schedule stack: a random (model, cluster, plan, schedule)
//                 passes the validator invariant set, the analytic latency
//                 brackets the simulated makespan, and DAPPLE's peak memory
//                 does not grow with M.
//   --faults      a random fault script and recovery policy; every pipeline
//                 the experiment builds (initial, checkpoint-remapped,
//                 replanned) passes the validator.
//   --memory-cap  a per-device cap scaled around the family's uncapped peak;
//                 the planner declares it infeasible or emits a plan whose
//                 capped simulation passes the validator with zero OOM.
//   --scenario    a long-horizon churn episode (churn model x recovery policy
//                 x schedule family); every pipeline it builds passes the
//                 validator with zero OOM tasks, the churn script round-trips
//                 through the DSL, and elastic-up rollbacks stay
//                 checkpoint-bounded.
//
// Each case derives entirely from its 64-bit seed, so any failure printed
// by the batch mode reproduces exactly with --repro.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "check/fuzz.h"
#include "flags.h"
#include "scenario/fuzz.h"

using namespace dapple;

namespace {

struct SweepOptions {
  std::uint64_t base = 0;
  long iterations = 200;
  int threads = 1;
  bool verbose = false;
};

template <class Mode>
int Sweep(const SweepOptions& o) {
  const std::vector<std::uint64_t> seeds = check::SeedRange(o.base, o.iterations);
  if (o.verbose) {
    for (std::uint64_t seed : seeds) std::printf("%s\n", Mode::Make(seed).Describe().c_str());
  }
  const std::vector<typename Mode::Outcome> outcomes = check::RunSweep<Mode>(seeds, o.threads);
  // Tallied in seed order over the slot-indexed outcomes, so the summary
  // never depends on worker scheduling.
  typename Mode::Tally tally;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::fprintf(stderr, "%s  case: %s\n", outcomes[i].Summary().c_str(),
                   Mode::Make(seeds[i]).Describe().c_str());
      return 1;
    }
    tally.Add(outcomes[i]);
  }
  std::printf("%s", tally.ToString(o.base).c_str());
  return 0;
}

template <class Mode>
int Repro(std::uint64_t seed) {
  const typename Mode::Case c = Mode::Make(seed);
  std::printf("%s\n", c.Describe().c_str());
  const typename Mode::Outcome out = Mode::Run(c);
  if (!out.ok()) {
    std::printf("%s", out.Summary().c_str());
    return 1;
  }
  std::printf("%s\n", out.Detail().c_str());
  return 0;
}

struct FuzzMode {
  const char* flag;  // nullptr: the default mode
  int (*sweep)(const SweepOptions&);
  int (*repro)(std::uint64_t);
};

constexpr FuzzMode kModes[] = {
    {nullptr, Sweep<check::ScheduleFuzz>, Repro<check::ScheduleFuzz>},
    {"--faults", Sweep<check::FaultFuzz>, Repro<check::FaultFuzz>},
    {"--memory-cap", Sweep<check::MemoryCapFuzz>, Repro<check::MemoryCapFuzz>},
    {"--scenario", Sweep<scenario::ScenarioFuzz>, Repro<scenario::ScenarioFuzz>},
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dapple_fuzz [MODE] [--iterations N] [--seed BASE] [--verbose]\n"
               "              [--threads N]  (0 = hardware concurrency; results\n"
               "               are identical at every N)\n"
               "  dapple_fuzz [MODE] --repro SEED\n"
               "MODE (at most one; default: the schedule stack):");
  for (const FuzzMode& m : kModes) {
    if (m.flag != nullptr) std::fprintf(stderr, " %s", m.flag);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Consumes a mode flag; nullptr when the current token names none.
const FuzzMode* MatchMode(FlagParser& flags) {
  for (const FuzzMode& m : kModes) {
    if (m.flag != nullptr && flags.Match(m.flag)) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions options;
  const FuzzMode* mode = nullptr;
  bool conflicting_modes = false;
  bool repro = false;
  std::uint64_t repro_seed = 0;
  FlagParser flags(argc - 1, argv + 1);
  while (!flags.Done()) {
    if (const FuzzMode* m = MatchMode(flags)) {
      conflicting_modes = conflicting_modes || (mode != nullptr && mode != m);
      mode = m;
    } else if (flags.MatchUnsigned("--repro", &repro_seed)) {
      repro = true;
    } else if (flags.Match("--verbose")) {
      options.verbose = true;
    } else if (!flags.MatchUnsigned("--iterations", &options.iterations) &&
               !flags.MatchUnsigned("--seed", &options.base) &&
               !flags.MatchUnsigned("--threads", &options.threads)) {
      flags.Unknown();
    }
  }
  if (!flags.ok() || conflicting_modes || options.iterations == 0) return Usage();
  if (mode == nullptr) mode = &kModes[0];
  return repro ? mode->repro(repro_seed) : mode->sweep(options);
}
