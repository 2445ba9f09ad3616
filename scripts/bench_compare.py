#!/usr/bin/env python3
"""Compare two google-benchmark JSON snapshots and gate on regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [options]

Options:
    --metric {cpu_time,real_time}   metric to compare (default: cpu_time);
                                    benchmarks registered with UseRealTime()
                                    (names ending in "/real_time") always
                                    compare real_time -- their cpu_time is
                                    only the driving thread's
    --tolerance FRAC                allowed slowdown fraction for every
                                    benchmark (default: 0.10 = 10%)
    --tol NAME=FRAC                 per-benchmark override, repeatable
                                    (e.g. --tol BM_OptimalScheduleByJobs/64=0.25)
    --require PREFIX                fail unless the candidate has at least one
                                    iteration run whose name starts with PREFIX,
                                    repeatable (e.g. --require BM_Service)

Only "iteration" runs are compared; aggregates (BigO, RMS, mean/median/stddev)
are skipped — their semantics differ per benchmark and the raw iterations are
what the snapshot records. A benchmark present in the baseline but missing
from the candidate is a failure: silently dropping a benchmark is how
regressions hide. New benchmarks in the candidate are reported but pass.

Exit codes: 0 all within tolerance, 1 regression (or missing benchmark),
2 usage / unreadable input.
"""

import argparse
import json
import sys


def metric_for(name, metric):
    """real_time for UseRealTime() benchmarks: their work runs on other
    threads, so cpu_time (the driver's) reads e.g. 0.11 ms for a 44 ms solve."""
    return "real_time" if name.endswith("/real_time") else metric


def load_iterations(path, metric):
    """Map benchmark name -> compared value for the snapshot's iteration runs."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        sys.exit(f"bench_compare: {path} is not valid JSON: {error}")
    if "benchmarks" not in data:
        sys.exit(f"bench_compare: {path} has no 'benchmarks' array "
                 "(not a google-benchmark JSON snapshot?)")
    runs = {}
    for bench in data["benchmarks"]:
        if bench.get("run_type") != "iteration":
            continue
        name = bench.get("name")
        if name is None:
            continue
        value = bench.get(metric_for(name, metric))
        if value is None:
            continue
        runs[name] = float(value)
    return runs


def parse_overrides(pairs):
    overrides = {}
    for pair in pairs:
        name, sep, frac = pair.rpartition("=")
        if not sep or not name:
            sys.exit(f"bench_compare: bad --tol '{pair}' (expected NAME=FRAC)")
        try:
            overrides[name] = float(frac)
        except ValueError:
            sys.exit(f"bench_compare: bad --tol fraction in '{pair}'")
    return overrides


def main():
    parser = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON snapshots.", add_help=True)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--metric", choices=("cpu_time", "real_time"),
                        default="cpu_time")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed slowdown fraction (default 0.10)")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=FRAC",
                        help="per-benchmark tolerance override")
    parser.add_argument("--require", action="append", default=[], metavar="PREFIX",
                        help="require a candidate benchmark with this name prefix")
    args = parser.parse_args()

    overrides = parse_overrides(args.tol)
    baseline = load_iterations(args.baseline, args.metric)
    candidate = load_iterations(args.candidate, args.metric)
    if not baseline:
        sys.exit(f"bench_compare: {args.baseline} has no iteration runs")

    width = max(len(name) for name in baseline)
    failures = []
    print(f"{'benchmark':<{width}}  {'base':>12}  {'cand':>12}  "
          f"{'delta':>8}  {'tol':>6}  verdict")
    for name in sorted(baseline):
        base = baseline[name]
        tol = overrides.get(name, args.tolerance)
        if name not in candidate:
            failures.append(name)
            print(f"{name:<{width}}  {base:>12.0f}  {'MISSING':>12}  "
                  f"{'':>8}  {tol:>6.0%}  FAIL (missing)")
            continue
        cand = candidate[name]
        delta = (cand - base) / base if base > 0 else 0.0
        ok = delta <= tol
        if not ok:
            failures.append(name)
        print(f"{name:<{width}}  {base:>12.0f}  {cand:>12.0f}  "
              f"{delta:>+7.1%}  {tol:>6.0%}  {'ok' if ok else 'FAIL'}")
    new = sorted(set(candidate) - set(baseline))
    for name in new:
        print(f"{name:<{width}}  {'--':>12}  {candidate[name]:>12.0f}  "
              f"{'':>8}  {'':>6}  new")

    # Required families: a snapshot that silently dropped a whole benchmark
    # binary (e.g. bench_service missing from the merged JSON) must not pass.
    for prefix in args.require:
        if not any(name.startswith(prefix) for name in candidate):
            failures.append(prefix)
            print(f"bench_compare: required prefix '{prefix}' has no candidate "
                  "benchmarks", file=sys.stderr)

    if failures:
        print(f"\nbench_compare: {len(failures)} regression(s) beyond tolerance "
              f"({args.metric})", file=sys.stderr)
        return 1
    print(f"\nbench_compare: all {len(baseline)} benchmarks within tolerance "
          f"({args.metric})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
