#!/usr/bin/env python3
"""Self-check of the serving benchmark, in its short mode.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N]

For every workload named in BENCHMARK.json it runs perfbench/run.py --quick
for about a second with --trace 0, and twice with --trace 1 on the same seed.
It fails (exit 1) unless
  * every run is correct, with ok_frac = 1 and no failed request;
  * the --trace 0 run emits exactly the end_to_end metrics of BENCHMARK.json
    and the --trace 1 runs exactly its per_layer metrics, each with its unit;
  * every per-layer work count (unit "count" or "bytes") repeats exactly
    across the two --trace 1 runs: same seed, same requests, same work;
  * the stage ledger closes: the stages plus server.gap_us and wire.gap_us
    add up to the measured mean round trip.
It prints every metric of every run by name, value and unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes")
LEDGER = ("client.encode_us", "server.decode_us", "service.execute_us", "server.encode_us",
          "server.gap_us", "frame.roundtrip_us", "client.decode_us", "wire.gap_us")


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {workload} trace={trace} exited {done.returncode}")
    return json.loads(lines[-1])


def check_metrics(where, result, wanted, problems):
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} is not a finite number")
    for name, entry in sorted(got.items()):
        print(f"  {where:22s} {name:36s} {entry.get('value'):>16.6g} {entry.get('unit')}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, 0)
        check_metrics(f"{workload} trace=0", plain, end_to_end, problems)
        ok_frac = plain["metrics"].get("ok_frac", {}).get("value")
        if ok_frac != 1:
            problems.append(f"{workload}: ok_frac = {ok_frac}, want 1")
        first = run(workload, args.seed, 1)
        second = run(workload, args.seed, 1)
        for index, result in enumerate((first, second)):
            check_metrics(f"{workload} trace=1 #{index + 1}", result, per_layer, problems)
        for name, unit in per_layer.items():
            if unit not in EXACT_UNITS:
                continue
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                problems.append(f"{workload}: count {name} did not repeat: {a} vs {b}")
        metrics = first["metrics"]
        if all(name in metrics for name in LEDGER + ("client.roundtrip_us_mean",)):
            stages = sum(metrics[name]["value"] for name in LEDGER)
            roundtrip = metrics["client.roundtrip_us_mean"]["value"]
            if abs(stages - roundtrip) > 1e-6 * roundtrip:
                problems.append(f"{workload}: ledger sums to {stages} us, round trip {roundtrip} us")
        print(f"selfcheck: {workload} checked", flush=True)

    for problem in problems:
        print(f"selfcheck: FAIL {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
