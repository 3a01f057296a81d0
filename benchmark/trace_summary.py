#!/usr/bin/env python3
"""Summarizes one benchmark trace (the Chrome trace-event JSON that
`benchmark/run.sh --trace 1` writes to build-bench/work/).

  python3 benchmark/trace_summary.py build-bench/work/trace-cold_users-seed1.json

Prints, per span name, the span count and the p50/p95 of its self time:
the span's duration minus the part of it that its child spans cover.
Checks that every child span lies inside its root span, and prints
trace.overhead_p50, the traced minus the untraced nominal p50 latency
measured in the same run. Exit status 1 when a child escapes its root.
"""

import argparse
import json
import sys

# Timestamps are written in microseconds with three decimals.
TOLERANCE_US = 0.0015


def percentile(values, q):
    """Linear interpolation between closest ranks, as the benchmark uses."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace JSON file")
    args = parser.parse_args()
    with open(args.trace) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            children.setdefault(parent, []).append(e)

    self_us = {}
    escaped = 0
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in children.get(e["args"]["id"], [])]
        self_us.setdefault(e["name"], []).append(e["dur"] - covered(start, end, kids))
        root = e
        while root["args"]["parent"]:
            root = by_id[root["args"]["parent"]]
        if root is not e and (
            start < root["ts"] - TOLERANCE_US
            or end > root["ts"] + root["dur"] + TOLERANCE_US
        ):
            escaped += 1

    print(f"{'span':24s} {'count':>8s} {'self_p50_us':>12s} {'self_p95_us':>12s}")
    for name in sorted(self_us):
        values = self_us[name]
        print(
            f"{name:24s} {len(values):8d} {percentile(values, 0.5):12.3f} "
            f"{percentile(values, 0.95):12.3f}"
        )
    meta = doc.get("otherData", {})
    if "overhead_p50_ms" in meta:
        print(
            f"trace.overhead_p50 {meta['overhead_p50_ms']:.6f} ms "
            f"(traced p50 {meta['p50_traced_ms']:.6f} ms, "
            f"untraced p50 {meta['p50_untraced_ms']:.6f} ms)"
        )
    print(f"children outside their root: {escaped}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
