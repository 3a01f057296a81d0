#!/usr/bin/env python3
"""Compares two benchmark result sets, per workload and end-to-end metric.

  python3 benchmark/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines `benchmark/run.sh --results FILE` appends, one
per run; per-layer (--trace 1) lines are ignored. For every workload and
every end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the change's pair win rate (runs paired in file order, ties
count for neither) and a verdict against the metric's bound:

  regressed   the change's median is worse than the base's by more than the
              bound, and the spread resolves it (or every change run is
              worse than every base run);
  unresolved  a side's spread (interquartile range over median) exceeds the
              bound, unless every change run beats every base run;
  ok          otherwise.

It also flags a rise in the share of failed operations. Exit status 1 on
any regression or failure rise, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if int(row.get("trace", 0)) == 0:
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result set of the parent")
    parser.add_argument("change", help="result set of the change")
    parser.add_argument(
        "--benchmark",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
        help="BENCHMARK.json with the metric directions and bounds",
    )
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)

    bad = False
    header = (
        f"{'workload':12s} {'metric':14s} {'base q1/med/q3':>30s} "
        f"{'change q1/med/q3':>30s} {'worse':>8s} {'spread':>7s} {'bound':>6s} "
        f"{'wins':>5s}  verdict"
    )
    print(header)
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:12s} missing from one side")
            bad = True
            continue
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                print(f"{workload:12s} {name:14s} missing")
                bad = True
                continue
            qa, qb = quartiles(a), quartiles(b)
            med_a, med_b = qa[1], qb[1]
            worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)

            def better(x, y):
                return x < y if lower else x > y

            wins = sum(better(y, x) for x, y in zip(a, b)) / min(len(a), len(b))
            all_better = all(better(y, x) for x in a for y in b)
            all_worse = all(better(x, y) for x in a for y in b)
            if worse > bound and (spread <= bound or all_worse):
                verdict = "regressed"
                bad = True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:12s} {name:14s} "
                f"{qa[0]:9.4g} {qa[1]:9.4g} {qa[2]:9.4g}  "
                f"{qb[0]:9.4g} {qb[1]:9.4g} {qb[2]:9.4g} "
                f"{worse:+8.2%} {spread:7.2%} {bound:6.2%} {wins:5.2f}  {verdict}"
            )
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        if fb > fa:
            print(f"{workload:12s} failed share rose: {fa:.6f} -> {fb:.6f}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
