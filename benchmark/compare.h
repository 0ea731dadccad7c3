// `dapple_bench_e2e compare BASE.json NEW.json --benchmark BENCHMARK.json`:
// per (end-to-end metric, workload), each side's median and quartiles over
// its untraced runs and a verdict against the metric's bound from
// BENCHMARK.json:
//
//   better / worse — the medians differ by more than the bound;
//   same           — they differ by no more than the bound;
//   unresolved     — either side's quartile spread exceeds the bound, and
//                    not every new run beats every base run.
//
// It also compares each workload's error rate (failed / attempted) and,
// for traced runs of the same (workload, seed) on both sides, requires the
// simulated decision quality (plan.sim_throughput, episode.goodput) to be
// bit-identical. Exits 1 on a worse metric, a higher error rate or a
// changed quality value.
#pragma once

namespace dapple::e2e {

int Compare(int argc, char** argv);

}  // namespace dapple::e2e
