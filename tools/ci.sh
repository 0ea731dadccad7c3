#!/usr/bin/env bash
# Local CI: configure + build + test the tree twice — once plain, once
# under AddressSanitizer/UBSan (DAPPLE_SANITIZE=address,undefined) — and
# run the concurrent core under ThreadSanitizer (DAPPLE_SANITIZE=thread).
# The plain tree builds with -DDAPPLE_WERROR=ON: any -Wall -Wextra warning
# fails CI.
#
#   tools/ci.sh [build-dir-prefix]
#
# The build trees land in <prefix>, <prefix>-asan and <prefix>-tsan
# (default prefix: build-ci).
#
# DAPPLE_CI_TIER selects the test tier:
#   unit (default) — `ctest -L unit`, the fast suite (pull requests)
#   full           — the whole registered suite, which adds the `-L fuzz`
#                    randomized sweeps and the `-L golden` byte-stability
#                    tests (pushes to main)
#   Both tiers also build the end-to-end benchmark (benchmark/, into
#   <prefix>-e2e) on the plain tree and run each of its workloads once for
#   one second (a failed output check fails CI; traces and temporaries
#   stay under <prefix>-e2e), and run the ThreadSanitizer tier:
#   the ThreadPool and LruCache unit tests, the planner, simulator
#   and scenario determinism sweeps, serve_test and the serve daemon
#   smoke, built into <prefix>-tsan. Any data race fails the run.
#   perf-smoke     — `ctest -L perf-smoke`, every entry RUN_SERIAL: the
#                    planner, simulator and scenario determinism sweeps
#                    (the engine and a ThreadPool fan-out vs the reference
#                    engine, and churn-episode / co-schedule reports at
#                    every thread count — all byte-identical), the --quick
#                    planner-scaling, sim-engine, serve and scenario
#                    benches (the planner-scaling bench also fails when
#                    a point's stage-row hits, misses or rows differ
#                    between 1 and 8 threads; the sim-engine bench fences
#                    the engine against regressing below the reference
#                    engine; the
#                    scenario bench fences elastic-up against losing to
#                    sync-stall on churn and the co-scheduler against
#                    the naive even split), the serve daemon smoke
#                    (scripted request mix against a spawned `dapple
#                    serve`), and reduced fuzz sweeps — the
#                    schedule-family sweep covering every ScheduleKind,
#                    the fault sweep (every pipeline a recovery policy
#                    builds passes the validator), the memory-cap sweep
#                    (plan under a random per-device cap -> refuse or
#                    fit, never OOM) and the scenario sweep (churn model
#                    x policy x family; zero validator violations, zero
#                    OOM plans) — all four dapple_fuzz modes (seconds; runs
#                    on the plain tree only, sanitizers would distort the
#                    timing columns — the sweeps themselves also run
#                    under ASan in the unit tier)
#
# Wider sweeps stay opt-in: `DAPPLE_FUZZ_ITERATIONS=100000 ctest -L fuzz`,
# or `<build>/tools/dapple_fuzz --iterations 100000` directly, in any of its
# four modes (default schedule, --faults, --memory-cap, --scenario).
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

run_suite "${prefix}" -DDAPPLE_WERROR=ON
# benchmark/ builds against src/ headers (runtime/executor.h, obs/report.h,
# serve/*) from its own source tree, so an API change in src/ can break it
# without breaking the main build; running each workload once also checks
# that it still produces correct output.
if [[ "${tier}" != "perf-smoke" ]]; then
  echo "=== configure + build ${prefix}-e2e (benchmark/)"
  cmake -S benchmark -B "${prefix}-e2e" >/dev/null
  cmake --build "${prefix}-e2e" --target dapple_bench_e2e -j "${jobs}" >/dev/null
  # One short untraced run of every workload: a failed output check (a
  # wrong plan, report or episode) exits non-zero and fails CI.
  mkdir -p "${prefix}-e2e/tmp"
  for workload in $("${prefix}-e2e/dapple_bench_e2e" workloads); do
    echo "=== benchmark ${workload} (1 s)"
    TMPDIR="${prefix}-e2e/tmp" "${prefix}-e2e/dapple_bench_e2e" run --workload "${workload}" \
      --seed 1 --seconds 1 --trace 0 --trace-dir "${prefix}-e2e/trace" \
      --benchmark BENCHMARK.json >/dev/null
  done
fi
# Sanitizer instrumentation would distort perf-smoke's timing columns, and
# the determinism sweep it carries already ran under ASan in the unit tier.
if [[ "${tier}" != "perf-smoke" ]]; then
  run_suite "${prefix}-asan" -DDAPPLE_SANITIZE=address,undefined
fi
# ThreadSanitizer over everything that fans out across threads. The tests
# run as whole binaries; TSan fails a binary that reported any race.
if [[ "${tier}" != "perf-smoke" ]]; then
  tsan_dir="${prefix}-tsan"
  tsan_tests=(thread_pool_test common_test planner_determinism_test
              sim_determinism_test scenario_determinism_test serve_test
              serve_smoke_test)
  echo "=== configure ${tsan_dir} (-DDAPPLE_SANITIZE=thread)"
  cmake -B "${tsan_dir}" -S . -DDAPPLE_SANITIZE=thread >/dev/null
  echo "=== build ${tsan_dir}"
  cmake --build "${tsan_dir}" --target "${tsan_tests[@]}" -j "${jobs}" >/dev/null
  for test in "${tsan_tests[@]}"; do
    echo "=== tsan ${test}"
    TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/${test}" --gtest_brief=1
  done
fi
echo "=== ci ok"
