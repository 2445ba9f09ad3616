#!/usr/bin/env python3
"""Serving benchmark of mpss: one run of one workload against mpss_served.

Run from the repository root:

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 10 --trace 0

The first run builds the library, the daemon (mpss_served), mpss_trace and the
load generator from source with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only check the build is current.
The load generator (loadgen.cpp) does the measuring and verifying; this script
builds, runs it under a time limit and forwards its output. With --trace 1 it
also prints `mpss_trace --report` of the traced pass (the self time of each
layer's span) before the result line.

The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit codes: 0 when every response was verified correct, 1 when the run ran
but was incorrect or timed out, 2 when the benchmark cannot build or start
(for example when the mpss sources are absent).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact_cold", "fast_cold", "oa_cold", "cache_hot")
TARGETS = ("perfbench_loadgen", "mpss_served", "mpss_trace")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then brings the three targets up to date."""
    for needed in ("src/CMakeLists.txt", "tools/mpss_served.cpp", "tools/mpss_trace.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError(f"{needed} is missing; the benchmark builds mpss from source")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target", *TARGETS],
                   check=True, stdout=sys.stderr)


def revision():
    """The checkout's git revision, or "unknown" when it is not a repository.
    Git is not allowed to look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(process):
    """Kills the load generator's session and waits until none of it is left."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()
    for _ in range(200):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest samples; used by selfcheck.py")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        print(f"perfbench: cannot build: {error}", file=sys.stderr)
        return 2

    trace_file = os.path.join(out_dir, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    command = [os.path.join(out_dir, "perfbench_loadgen"),
               f"--daemon={os.path.join(out_dir, 'mpss_served')}",
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--revision={revision()}"]
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        command.append(f"--trace-out={trace_file}")
    if args.quick:
        command.append("--quick")
    # Its own session, so a run that overstays can be killed together with
    # the daemon it started.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        stdout, stderr = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(run)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{\"correct\""):
        sys.stdout.write(stdout)
        print(f"perfbench: load generator exited {run.returncode} without a result",
              file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    if args.trace:
        report = subprocess.run([os.path.join(out_dir, "mpss_trace"), trace_file, "--report"],
                                capture_output=True, text=True, timeout=60)
        sys.stdout.write(report.stdout)
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
