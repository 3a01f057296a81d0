#!/usr/bin/env bash
# Builds the benchmark and runs it, one fresh process per workload.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds 19] [--trace 0|1]
#                    [--smoke] [--results FILE]
#
# Without --workload every workload runs in turn. The last line of stdout
# is the last run's result object. --results FILE appends one line per run:
# {"workload": ..., "seed": ..., "trace": ..., "result": <result object>},
# the input of benchmark/compare.py. A run measures for a fixed 19 s
# (run_seconds in BENCHMARK.json); --seconds is accepted only with that
# value, so the run length cannot differ between two result sets. --smoke
# runs every workload for about 2 s with every output check and no timing
# claims. The build goes to $CARGO_TARGET_DIR (default build-bench);
# traces and scratch snapshots go to its work/ directory.
set -euo pipefail

usage() {
  echo "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds 19]" \
       "[--trace 0|1] [--smoke] [--results FILE]" >&2
  echo "run.sh: $1" >&2
  exit 2
}

workloads=(cold_users hot_users pages online_swap)
selected=()
seed=1
trace=0
smoke=0
results=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; shift; continue ;;
    --workload|--seed|--seconds|--trace|--results) ;;
    *) usage "unknown flag '$1'" ;;
  esac
  [[ $# -ge 2 ]] || usage "$1 needs a value"
  case "$1" in
    --workload) selected+=("$2") ;;
    --seed) seed="$2" ;;
    --seconds) [[ "$2" == 19 ]] || usage "--seconds must be 19, got '$2'" ;;
    --trace) trace="$2" ;;
    --results) results="$2" ;;
  esac
  shift 2
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-build-bench}"
mkdir -p "$build/work"

# Configure once per build directory, then an incremental build. All build
# output goes to stderr: stdout carries only results.
generator=()
command -v ninja > /dev/null && generator=(-G Ninja)
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target rerank_bench -j 4 >&2

status=0
for workload in "${selected[@]}"; do
  args=(--workload "$workload" --seed "$seed" --trace "$trace"
        --workdir "$build/work")
  [[ $smoke -eq 1 ]] && args+=(--smoke)
  set +e
  out="$("$build/rerank_bench" "${args[@]}")"
  code=$?
  set -e
  [[ $code -eq 0 ]] || status=$code
  line="$(printf '%s\n' "$out" | tail -n 1)"
  [[ -n "$line" ]] || continue
  if [[ -n "$results" ]]; then
    printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
      "$workload" "$seed" "$trace" "$line" >> "$results"
  fi
  printf '%s\n' "$line"
done
exit $status
