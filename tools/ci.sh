#!/usr/bin/env bash
# Local CI: configure + build + test the tree twice — once plain, once
# under AddressSanitizer/UBSan (DAPPLE_SANITIZE=address,undefined).
#
#   tools/ci.sh [build-dir-prefix]
#
# The two build trees land in <prefix> and <prefix>-asan (default: build-ci).
#
# DAPPLE_CI_TIER selects the test tier:
#   unit (default) — `ctest -L unit`, the fast suite (pull requests)
#   full           — the whole registered suite, which adds the `-L fuzz`
#                    randomized sweeps and the `-L golden` byte-stability
#                    tests (pushes to main)
#   perf-smoke     — `ctest -L perf-smoke`, every entry RUN_SERIAL: the
#                    planner, simulator and scenario determinism sweeps
#                    (the engine and BatchRunner vs the reference
#                    engine, and churn-episode / co-schedule reports at
#                    every thread count — all byte-identical), the --quick
#                    planner-scaling, sim-engine, serve and scenario
#                    benches (the sim-engine bench also fences the engine
#                    against regressing below the reference engine and the
#                    analytic pre-filter against dropping the sim-best
#                    candidate; the scenario bench fences elastic-up
#                    against losing to sync-stall on churn and the
#                    co-scheduler against
#                    the naive even split), the serve daemon smoke
#                    (scripted request mix against a spawned `dapple
#                    serve`), and reduced fuzz sweeps — the
#                    schedule-family sweep covering every ScheduleKind,
#                    the memory-cap sweep (plan under a random per-device
#                    cap -> refuse or fit, never OOM), the ranking-recall
#                    sweep (prefilter rank-1 recall == 100%) and the
#                    scenario sweep (churn model x policy x family; zero
#                    validator violations, zero OOM plans) (seconds; runs
#                    on the plain tree only, sanitizers would distort the
#                    timing columns — the sweeps themselves also run
#                    under ASan in the unit tier)
#
# Wider sweeps stay opt-in: `DAPPLE_FUZZ_ITERATIONS=100000 ctest -L fuzz`,
# or `tools/dapple_fuzz --iterations 100000` / `--faults` / `--memory-cap`
# directly.
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"
tier="${DAPPLE_CI_TIER:-unit}"

case "${tier}" in
  unit) label_args=(-L unit) ;;
  full) label_args=() ;;
  perf-smoke) label_args=(-L perf-smoke) ;;
  *)
    echo "unknown DAPPLE_CI_TIER '${tier}' (unit | full | perf-smoke)" >&2
    exit 2
    ;;
esac

run_suite() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== build ${dir}"
  cmake --build "${dir}" -j "${jobs}" >/dev/null
  echo "=== ctest tier=${tier} (${dir})"
  ctest --test-dir "${dir}" "${label_args[@]}" --output-on-failure -j "${jobs}"
}

run_suite "${prefix}"
# Sanitizer instrumentation would distort perf-smoke's timing columns, and
# the determinism sweep it carries already ran under ASan in the unit tier.
if [[ "${tier}" != "perf-smoke" ]]; then
  run_suite "${prefix}-asan" -DDAPPLE_SANITIZE=address,undefined
fi
echo "=== ci ok"
