#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run from anywhere; the build
# goes to build-e2e/ at the repository root, and nothing is written
# outside the repository.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
#       One run of one workload in its own process. The last line of
#       standard output is the run's JSON result; exit status 1 means an
#       output check failed.
#   bash benchmark/run.sh [--seed N] [--runs R] [--seconds S] [--trace-dir DIR] [--out FILE]
#       Every workload, each run in its own process: R untraced runs with
#       seeds N..N+R-1, then one traced run with seed N. Writes a results
#       file stamped with the host (default build-e2e/results.json).
#   bash benchmark/run.sh compare BASE.json NEW.json
#       Compares two results files against the bounds in BENCHMARK.json.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-e2e"
bin="$build/dapple_bench_e2e"

# Compilers and CMake write temporaries under TMPDIR; keep them in the tree.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

# Always an optimized build without sanitizers; dapple_bench_e2e also
# refuses to time anything else.
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAPPLE_SANITIZE= >&2
fi
cmake --build "$build" --target dapple_bench_e2e -j 4 >&2

if [[ "${1:-}" == "compare" ]]; then
  shift
  "$bin" compare "$@" --benchmark "$root/BENCHMARK.json"
  exit
fi

workload="" seed=1 seconds="" trace=0 runs=1 out="$build/results.json"
trace_dir="$build/trace"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --trace-dir) trace_dir="$2" ;;
    --runs) runs="$2" ;;
    --out) out="$2" ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift 2
done
if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
fi

if [[ -n "$workload" ]]; then
  "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --trace-dir "$trace_dir" --benchmark "$root/BENCHMARK.json"
  exit
fi

# Every workload, one process per run, so peak RSS and registry deltas
# belong to a single workload.
host="$("$bin" host)"
sha="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
status=0
{
  printf '{"host":%s,\n"seconds":%s,\n"runs":[\n' "${host%\}},\"git\":\"$sha\"}" "$seconds"
  sep=" "
  for w in $("$bin" workloads); do
    for ((i = 0; i <= runs; i++)); do
      if ((i < runs)); then s=$((seed + i)) t=0; else s=$seed t=1; fi
      echo "run.sh: $w seed $s trace $t" >&2
      code=0
      "$bin" run --workload "$w" --seed "$s" --seconds "$seconds" --trace "$t" \
        --trace-dir "$trace_dir" --benchmark "$root/BENCHMARK.json" > "$TMPDIR/run.out" ||
        code=$?
      cat "$TMPDIR/run.out" >&2
      result="$(tail -n 1 "$TMPDIR/run.out")"
      if ((code != 0)); then status=1; fi
      if [[ "$result" != "{"* ]]; then
        echo "run.sh: $w seed $s printed no result" >&2
        exit 1
      fi
      printf '%s{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$sep" "$w" "$s" "$t" \
        "$result"
      sep=","
    done
  done
  printf ']}\n'
} > "$out"
echo "run.sh: results written to $out" >&2
exit "$status"
