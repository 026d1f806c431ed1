#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 50 --trace 0

Run from the repository root. Configures and builds the perfbench
package (which compiles the simulator from src/) into
.bench_build/perfbench, measures set-up time as the median of several
set-up-only launches, runs the measurement, and prints its JSON result
as the last line of standard output. Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_LAUNCHES = 21


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found in {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (BUILD / "build.ninja").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return BUILD / "perfbench"


def setup_seconds(cmd):
    """Median set-up time of launches that stop where the first job
    would be submitted. Each reports its own time from static
    initialization through the registry, energy model, pool threads
    and job list."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(cmd + ["--setup-only"],
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(done.returncode)
        times.append(float(done.stdout))
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    setup_s = None if args.trace else setup_seconds(cmd)

    cmd += ["--seconds", str(args.seconds)]
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(done.returncode or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
