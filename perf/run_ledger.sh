#!/usr/bin/env bash
# Perf-trajectory ledger: runs the machine-readable (--json) benches and
# records their output as one timestamped file under perf/ledger/, keyed to
# the current commit. Committing these files alongside code changes gives
# the repo a queryable history of serving/perf numbers per revision.
#
# Usage:
#   perf/run_ledger.sh           # quick set: kernels, batching, wire,
#                                # shards, pages
#   perf/run_ledger.sh --full    # adds bench_table5 + bench_table6 (slow)
#
# After writing the entry, perf/ledger_trend.py diffs it against the
# previous one (report only here; the tier-2 ctest target enforces it).
#
# Requires a configured build tree (default ./build, override with
# BUILD_DIR). The new file is `git add`ed but not committed.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
ledger_dir="$repo_root/perf/ledger"

mode="quick"
if [[ "${1:-}" == "--full" ]]; then
  mode="full"
fi

if [[ ! -d "$build_dir" ]]; then
  echo "error: build tree '$build_dir' not found (run cmake first)" >&2
  exit 1
fi

benches=(
  "bench_nn_micro --quick --json"
  "bench_batch --quick --json"
  "bench_net --quick --json"
  "bench_shard --quick --json"
  "bench_page --quick --json"
)
if [[ "$mode" == "full" ]]; then
  benches+=("bench_table5 --json" "bench_table6 --json")
fi

targets=()
for spec in "${benches[@]}"; do
  targets+=("${spec%% *}")
done
echo "[ledger] building: ${targets[*]}" >&2
cmake --build "$build_dir" --target "${targets[@]}" >&2

timestamp="$(date -u +%Y%m%dT%H%M%SZ)"
commit="$(git -C "$repo_root" rev-parse --short HEAD)"
out="$ledger_dir/$timestamp-$commit.json"
mkdir -p "$ledger_dir"

{
  printf '{"timestamp": "%s", "commit": "%s", "mode": "%s", "benches": [\n' \
    "$timestamp" "$commit" "$mode"
  first=1
  for spec in "${benches[@]}"; do
    name="${spec%% *}"
    args="${spec#* }"
    echo "[ledger] running $name $args" >&2
    json="$("$build_dir/bench/$name" $args)"
    [[ $first -eq 1 ]] || printf ',\n'
    first=0
    printf '%s' "$json"
  done
  printf '\n]}\n'
} > "$out"

git -C "$repo_root" add "$out"
echo "[ledger] wrote $out" >&2

if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/perf/ledger_trend.py" --ledger-dir "$ledger_dir" >&2 ||
    echo "[ledger] warning: trend gate reported a regression (see above)" >&2
fi
