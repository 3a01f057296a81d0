#!/usr/bin/env python3
"""Perf-trajectory trend gate over the committed ledger.

Compares the most recent entry under perf/ledger/ (filenames start with a
UTC timestamp, so lexicographic order is chronological) against the
*median* of the preceding window of entries (``--window``, default 5) and
fails when a trended metric regressed beyond the threshold. ``METRICS``
below declares which leaf keys are trended and whether lower or higher is
better; every other numeric leaf is a parameter, a count or a side key
(``_min``, ``_samples``) and is not trended.

The windowed median makes the baseline robust to one anomalously fast or
slow historical run: a single lucky entry can no longer make every
subsequent run look like a regression, and a single unlucky one cannot
mask a real slide. With a window of 1 this degenerates to the previous
pairwise behaviour.

A flagged metric must regress beyond the threshold against *both* the
windowed median and the best window observation (lowest for a
lower-is-better key, highest otherwise). The window entries sample the
same machine-noise distribution as the new run -- on a single-core CI box
back-to-back runs of an identical binary can differ by 40%+ -- so a new
value that some recent run already matched is within observed variance,
while a genuine code regression lands worse than every recent
observation.

Metrics are matched per bench (by the ``"bench"`` field of each entry in
the ledger's ``benches`` array) and per JSON path, so adding a new bench
or a new metric never trips the gate -- only a metric present in the
latest entry *and* at least one window entry can regress. Sub-floor
latencies (keys in ``us``; microsecond-scale cache hits and the like) are
skipped: at that magnitude scheduler noise swamps any signal. A latency
regression must also move by at least ``--min-delta-us`` in absolute
terms -- the serving metrics histogram is log-bucketed, so at millisecond
magnitudes one bucket step between adjacent runs already exceeds a 20%
ratio without meaning anything.

Usage:
  perf/ledger_trend.py [--ledger-dir DIR] [--threshold 0.20]
                       [--window 5] [--min-p99-us 200]
                       [--min-delta-us 1000]

Exit status: 0 = no regression (or fewer than two entries), 1 =
regression, 2 = malformed ledger. Registered as the tier-2 ctest target
``perf_ledger_trend`` (run with ``ctest -C perf``).
"""

import argparse
import json
import os
import statistics
import sys

# The trended leaf keys, in the shape of BENCHMARK.json's "end_to_end"
# entries. A leaf key is the last name on a metric's JSON path: "p99_us"
# in "results[2].stats.p99_us".
METRICS = [
    # Latency tails (serving stats, wire, shards).
    {"name": "p99_us", "unit": "us", "better": "lower"},
    {"name": "healthy_p99_us", "unit": "us", "better": "lower"},
    # Throughput.
    {"name": "throughput_rps", "unit": "req/s", "better": "higher"},
    {"name": "page_lists_per_sec", "unit": "lists/s", "better": "higher"},
    {"name": "single_lists_per_sec", "unit": "lists/s", "better": "higher"},
    # Kernels (bench_nn_micro).
    {"name": "gflops", "unit": "GFLOP/s", "better": "higher"},
    {"name": "melems", "unit": "Melem/s", "better": "higher"},
    {"name": "rows_per_sec", "unit": "rows/s", "better": "higher"},
    {"name": "steps_per_sec", "unit": "steps/s", "better": "higher"},
    {"name": "layers_per_sec", "unit": "layers/s", "better": "higher"},
    # Speedups behind the tier-2 ratio gates.
    {"name": "forward_speedup", "unit": "x", "better": "higher"},
    {"name": "compute_speedup", "unit": "x", "better": "higher"},
    {"name": "fetch_compute_speedup", "unit": "x", "better": "higher"},
    {"name": "speedup_2x", "unit": "x", "better": "higher"},
    {"name": "speedup_4x", "unit": "x", "better": "higher"},
    {"name": "ratio", "unit": "x", "better": "higher"},  # Page frame.
    # Page quality (bench_page, page-level DCM).
    {"name": "joint_utility", "unit": "dcm", "better": "higher"},
    {"name": "indep_utility", "unit": "dcm", "better": "higher"},
    {"name": "joint_coverage", "unit": "topics", "better": "higher"},
    {"name": "indep_coverage", "unit": "topics", "better": "higher"},
    {"name": "joint_redundancy", "unit": "topics", "better": "lower"},
    {"name": "indep_redundancy", "unit": "topics", "better": "lower"},
    {"name": "joint_spent", "unit": "mass", "better": "lower"},
    {"name": "indep_spent", "unit": "mass", "better": "lower"},
]
DIRECTION = {m["name"]: m for m in METRICS}


def leaf_key(path):
    """The last name on a JSON path, without any list index."""
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def collect_metrics(node, path, out):
    """Flattens the trended numeric leaves into {json.path: value}."""
    if isinstance(node, dict):
        for key, value in node.items():
            collect_metrics(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            collect_metrics(value, f"{path}[{i}]", out)
    elif (isinstance(node, (int, float)) and not isinstance(node, bool)
          and leaf_key(path) in DIRECTION):
        out[path] = float(node)


def entry_metrics(ledger):
    """{bench_name: {metric_path: value}} for one ledger file."""
    out = {}
    for bench in ledger.get("benches", []):
        name = bench.get("bench", "?")
        metrics = {}
        collect_metrics(bench, "", metrics)
        out[name] = metrics
    return out


def window_baseline(window_entries):
    """Per-(bench, path) samples across the window entries that have it."""
    samples = {}
    for entry in window_entries:
        for bench, metrics in entry.items():
            for path, value in metrics.items():
                samples.setdefault((bench, path), []).append(value)
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    default_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "ledger")
    parser.add_argument("--ledger-dir", default=default_dir)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional regression that fails the gate")
    parser.add_argument("--window", type=int, default=5,
                        help="history entries (before the latest) whose "
                             "median forms the baseline")
    parser.add_argument("--min-p99-us", type=float, default=200.0,
                        help="ignore latency (us) metrics below this baseline")
    parser.add_argument("--min-delta-us", type=float, default=1000.0,
                        help="a latency regression must also grow by this "
                             "many microseconds (histogram-bucket noise "
                             "guard)")
    args = parser.parse_args()
    if args.window < 1:
        print("ledger_trend: --window must be >= 1")
        return 2

    try:
        files = sorted(f for f in os.listdir(args.ledger_dir)
                       if f.endswith(".json"))
    except FileNotFoundError:
        print(f"ledger_trend: no ledger dir at {args.ledger_dir}")
        return 0
    if len(files) < 2:
        print(f"ledger_trend: {len(files)} entr{'y' if len(files) == 1 else 'ies'}"
              " in the ledger; need two to diff -- skipping")
        return 0

    curr_file = files[-1]
    window_files = files[-1 - args.window:-1]
    entries = []
    for name in window_files + [curr_file]:
        try:
            with open(os.path.join(args.ledger_dir, name)) as f:
                entries.append(entry_metrics(json.load(f)))
        except (OSError, json.JSONDecodeError) as err:
            print(f"ledger_trend: cannot read {name}: {err}")
            return 2
    curr = entries[-1]
    baseline = window_baseline(entries[:-1])

    print(f"ledger_trend: median of {len(window_files)} "
          f"({window_files[0]} .. {window_files[-1]}) -> {curr_file} "
          f"(threshold {args.threshold:.0%})")
    regressions = []
    compared = 0
    for (bench, path), samples in sorted(baseline.items()):
        curr_metrics = curr.get(bench)
        if curr_metrics is None:
            continue
        new = curr_metrics.get(path)
        old = statistics.median(samples)
        if new is None or old <= 0.0:
            continue
        metric = DIRECTION[leaf_key(path)]
        latency = metric["unit"] == "us"
        if latency and old < args.min_p99_us:
            continue  # Microsecond-scale noise, not signal.
        ratio = new / old
        if metric["better"] == "lower":
            best = min(samples)
            worse = (ratio > 1.0 + args.threshold and
                     (not latency or new - old >= args.min_delta_us) and
                     best > 0.0 and new / best > 1.0 + args.threshold)
        else:
            best = max(samples)
            worse = (ratio < 1.0 - args.threshold and
                     new / best < 1.0 - args.threshold)
        compared += 1
        status = "REGRESSED" if worse else "ok"
        print(f"  [{bench}] {path}: median {old:.6g} (best {best:.6g}) -> "
              f"{new:.6g} ({metric['unit']}, {metric['better']} is better, "
              f"ratio {ratio:.2f}) {status}")
        if worse:
            regressions.append(f"{bench}:{path}")

    dropped = sorted({bench for (bench, _) in baseline} - set(curr))
    for bench in dropped:
        print(f"  [{bench}] dropped from the latest entry -- skipping")

    if regressions:
        print(f"ledger_trend: {len(regressions)} regression(s): "
              + ", ".join(regressions))
        return 1
    print(f"ledger_trend: {compared} metric(s) compared, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
