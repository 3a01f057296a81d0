#!/usr/bin/env bash
# Perf ledger: one entry per change, with both sides measured on one host
# in one session, the way the paper's Table VI times RAPID against PRM.
#
#   perf/run_ledger.sh PARENT
#
# Exports the PARENT revision (git archive) to a temporary directory and
# runs 10 pairs of `benchmark/run.sh --seed 1 --results FILE`: one on the
# parent, one on this checkout's working tree, alternating which side runs
# first. Then it runs the four ratio benches of this checkout's build tree
# (default ./build, override with BUILD_DIR) with --quick --json, and
# writes perf/ledger/<UTC timestamp>-<parent>.json: the host key (nproc and
# CPU model), both result sets and the benches' output. The entry is
# `git add`ed, not committed. perf/ledger_trend.py then judges it (report
# only here; the tier-2 ctest target perf_ledger_trend enforces it).
#
# A bad argument exits 2 before anything is built, and so do benchmark/ or
# BENCHMARK.json differing between the two sides: compare.py's pairs must
# run identical benchmark code. A run takes about 40 minutes on 4 vCPUs.

set -euo pipefail

usage() {
  echo "usage: perf/run_ledger.sh PARENT" >&2
  echo "run_ledger.sh: $1" >&2
  exit 2
}

[[ $# -eq 1 ]] || usage "expected one parent revision, got $# arguments"
[[ "$1" != -* ]] || usage "unknown flag '$1'"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
parent="$(git -C "$repo_root" rev-parse --verify --quiet "$1^{commit}")" ||
  usage "'$1' is not a commit"
if ! git -C "$repo_root" diff --quiet "$parent" -- benchmark BENCHMARK.json; then
  echo "run_ledger.sh: benchmark/ or BENCHMARK.json differ from $1;" \
       "the pairs must run identical benchmark code" >&2
  exit 2
fi
if [[ ! -d "$build_dir" ]]; then
  echo "run_ledger.sh: build tree '$build_dir' not found (run cmake first)" >&2
  exit 1
fi

benches=(bench_nn_micro bench_batch bench_page bench_shard)
echo "[ledger] building: ${benches[*]}" >&2
cmake --build "$build_dir" --target "${benches[@]}" >&2

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$repo_root" archive "$parent" | tar -x -C "$work/parent"

# One benchmark pass of side $1 (parent or change), appended to $1.jsonl.
# Each side builds in its own directory; a nonzero exit still leaves its
# result lines, whose failed counts compare.py judges.
run_side() {
  local root="$repo_root"
  [[ "$1" == parent ]] && root="$work/parent"
  echo "[ledger] pair $((pair + 1))/10: $1" >&2
  (cd "$root" && CARGO_TARGET_DIR="$work/$1-bench" \
     bash benchmark/run.sh --seed 1 --results "$work/$1.jsonl" > /dev/null) ||
    echo "[ledger] warning: the $1 run exited nonzero" >&2
}
for pair in 0 1 2 3 4 5 6 7 8 9; do
  if (( pair % 2 == 0 )); then
    run_side parent
    run_side change
  else
    run_side change
    run_side parent
  fi
done

for name in "${benches[@]}"; do
  echo "[ledger] running $name --quick --json" >&2
  "$build_dir/bench/$name" --quick --json > "$work/$name.json"
done

timestamp="$(date -u +%Y%m%dT%H%M%SZ)"
short="$(git -C "$repo_root" rev-parse --short "$parent")"
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null |
       head -n 1)"
out="$repo_root/perf/ledger/$timestamp-$short.json"
mkdir -p "$repo_root/perf/ledger"
python3 - "$timestamp" "$short" "$(nproc)" "${cpu:-unknown}" "$work" \
  "${benches[@]}" > "$work/entry.json" <<'EOF'
import json
import sys

timestamp, parent, nproc, cpu, work, *benches = sys.argv[1:]


def rows(side):
    with open(f"{work}/{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]


def bench(name):
    with open(f"{work}/{name}.json") as f:
        return json.load(f)


json.dump({"timestamp": timestamp, "parent": parent,
           "host": {"nproc": int(nproc), "cpu": cpu},
           "base": rows("parent"), "change": rows("change"),
           "benches": [bench(name) for name in benches]},
          sys.stdout, indent=1)
print()
EOF
mv "$work/entry.json" "$out"
git -C "$repo_root" add "$out"
echo "[ledger] wrote $out" >&2
python3 "$repo_root/perf/ledger_trend.py" --ledger-dir "$repo_root/perf/ledger" >&2 ||
  echo "[ledger] warning: the trend gate reported a regression (see above)" >&2
