#!/usr/bin/env python3
"""Perf-ledger trend gate: judges the newest entry under perf/ledger/.

An entry, written by ``perf/run_ledger.sh PARENT``, holds what one session
on one host measured: two benchmark result sets of alternating pairs --
``base`` from the parent revision, ``change`` from the checkout -- the
``--quick --json`` output of the ratio benches, and the host key (``nproc``
and CPU model). Filenames start with a UTC timestamp, so lexicographic
order is chronological.

The newest entry fails the gate when either
  - benchmark/compare.py, run on its two result sets, reports a regressed
    end-to-end metric or a rise in the failed share (BENCHMARK.json's
    bounds); or
  - a ratio or page-quality key of its benches (``RATIO_KEYS``) is worse
    than in the previous entry from the same host by more than the
    threshold. An entry from another host is never compared: core count
    and CPU move even a same-run ratio.
Absolute speeds are judged only inside one entry, where both sides share
the session; across sessions they drift with whatever else the host runs.

It also prints the trajectory: per workload and end-to-end metric, each
entry's change/parent median ratio, chained from the oldest entry to the
newest.

Usage:
  perf/ledger_trend.py [--ledger-dir DIR] [--threshold 0.20]

Exit status: 0 = no regression (or an empty ledger), 1 = regression,
2 = malformed ledger. Registered as the tier-2 ctest target
``perf_ledger_trend`` (run with ``ctest -C perf``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(REPO, "benchmark", "compare.py")

# The leaf keys judged entry to entry, with the better direction. A leaf
# key is the last name on a metric's JSON path: "ratio" in
# "throughput.ratio". Each is a same-run speed ratio or a seeded quality
# figure, so unlike an absolute speed it holds still between sessions.
RATIO_KEYS = {
    "forward_speedup": "higher",
    "compute_speedup": "higher",
    "fetch_compute_speedup": "higher",
    "speedup_2x": "higher",
    "speedup_4x": "higher",
    "ratio": "higher",  # Page frame vs single-list frames.
    "joint_utility": "higher",
    "indep_utility": "higher",
    "joint_coverage": "higher",
    "indep_coverage": "higher",
    "joint_redundancy": "lower",
    "indep_redundancy": "lower",
    "joint_spent": "lower",
    "indep_spent": "lower",
}


def leaf_key(path):
    """The last name on a JSON path, without any list index."""
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def collect_ratios(node, path, out):
    """Flattens the RATIO_KEYS leaves into {json.path: value}."""
    if isinstance(node, dict):
        for key, value in node.items():
            collect_ratios(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect_ratios(value, f"{path}[{i}]", out)
    elif (isinstance(node, (int, float)) and not isinstance(node, bool)
          and leaf_key(path) in RATIO_KEYS):
        out[path] = float(node)


def bench_ratios(entry):
    """{(bench_name, metric_path): value} for one entry."""
    out = {}
    for bench in entry["benches"]:
        values = {}
        collect_ratios(bench, "", values)
        for path, value in values.items():
            out[(bench.get("bench", "?"), path)] = value
    return out


def load_entry(path):
    with open(path) as f:
        entry = json.load(f)
    if (not isinstance(entry, dict)
            or not all(k in entry for k in ("host", "base", "change",
                                            "benches"))
            or not all(k in entry["host"] for k in ("nproc", "cpu"))):
        raise ValueError("not a ledger entry: it needs host {nproc, cpu}, "
                         "base, change and benches")
    return entry


def host_name(entry):
    return f"{entry['host']['nproc']}x {entry['host']['cpu']}"


def run_compare(entry):
    """compare.py's exit status on the entry's two result sets."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for side in ("base", "change"):
            path = os.path.join(tmp, f"{side}.jsonl")
            with open(path, "w") as f:
                for row in entry[side]:
                    f.write(json.dumps(row) + "\n")
            paths.append(path)
        sys.stdout.flush()
        return subprocess.call([sys.executable, COMPARE] + paths)


def medians(rows):
    """{(workload, metric): median value} over one result set."""
    samples = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            samples.setdefault((row["workload"], name), []).append(
                metric["value"])
    return {key: statistics.median(v) for key, v in samples.items()}


def print_trajectory(names, entries):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]
    sides = [(medians(e["base"]), medians(e["change"])) for e in entries]
    workloads = sorted({w for base, _ in sides for (w, _) in base})
    print(f"ledger_trend: trajectory, change/parent median per entry "
          f"({names[0]} .. {names[-1]}):")
    for workload in workloads:
        for metric in metrics:
            chain, total = [], 1.0
            for base, change in sides:
                old = base.get((workload, metric))
                new = change.get((workload, metric))
                if not old or new is None:
                    chain.append("-")
                    continue
                chain.append(f"{new / old:.3f}")
                total *= new / old
            print(f"  {workload:12s} {metric:14s} {' x '.join(chain)}"
                  + (f" = {total:.3f}" if len(chain) > 1 else ""))


def judge_ratios(names, entries, threshold):
    """Regressed ratio keys of the newest entry against the previous entry
    from the same host; [] when there is none."""
    curr = entries[-1]
    prev = next((i for i in range(len(entries) - 2, -1, -1)
                 if entries[i]["host"] == curr["host"]), None)
    if prev is None:
        print(f"ledger_trend: ratio trend skipped: no earlier entry from "
              f"host {host_name(curr)}")
        return []
    print(f"ledger_trend: ratio keys, {names[prev]} -> {names[-1]} "
          f"(host {host_name(curr)}, threshold {threshold:.0%})")
    old_values, new_values = bench_ratios(entries[prev]), bench_ratios(curr)
    regressions = []
    for (bench, path), old in sorted(old_values.items()):
        new = new_values.get((bench, path))
        if new is None or old <= 0.0:
            continue
        better = RATIO_KEYS[leaf_key(path)]
        ratio = new / old
        worse = (ratio > 1.0 + threshold if better == "lower"
                 else ratio < 1.0 - threshold)
        print(f"  [{bench}] {path}: {old:.6g} -> {new:.6g} ({better} is "
              f"better, ratio {ratio:.2f}) {'REGRESSED' if worse else 'ok'}")
        if worse:
            regressions.append(f"{bench}:{path}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-dir", default=os.path.join(REPO, "perf",
                                                             "ledger"))
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional ratio-key regression that fails "
                             "the gate")
    args = parser.parse_args()

    try:
        names = sorted(f for f in os.listdir(args.ledger_dir)
                       if f.endswith(".json"))
    except FileNotFoundError:
        names = []
    if not names:
        print(f"ledger_trend: no entries under {args.ledger_dir} -- skipping")
        return 0
    entries = []
    for name in names:
        try:
            entries.append(load_entry(os.path.join(args.ledger_dir, name)))
        except (OSError, ValueError) as err:
            print(f"ledger_trend: cannot read {name}: {err}")
            return 2

    print(f"ledger_trend: {names[-1]}: parent {entries[-1].get('parent')} on "
          f"host {host_name(entries[-1])}, {len(entries[-1]['base'])} base "
          f"and {len(entries[-1]['change'])} change runs")
    compare_failed = run_compare(entries[-1]) != 0
    print_trajectory(names, entries)
    regressions = judge_ratios(names, entries, args.threshold)

    if compare_failed:
        print("ledger_trend: compare.py reports a regression or a failure "
              "rise in the newest entry (see its table above)")
    if regressions:
        print(f"ledger_trend: {len(regressions)} ratio regression(s): "
              + ", ".join(regressions))
    if compare_failed or regressions:
        return 1
    print("ledger_trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
