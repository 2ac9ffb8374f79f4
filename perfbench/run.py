#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload conv-large --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
library and the driver under .bench_build/perfbench (CMake, RelWithDebInfo);
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. A traced run (--trace 1)
writes its Chrome trace-event JSON to .bench_build/traces/.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("conv-large", "sweep", "serve")


def build() -> Path:
    """Configures (once) and builds the driver; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        # Serialize concurrent invocations sharing one build tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
