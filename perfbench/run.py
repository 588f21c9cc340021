#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the repository root. The library and the benchmark program are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build);
traces and temporary files go to .bench_out. Build output goes to stderr, so
the last stdout line of a single-workload run is the result JSON. Exits
nonzero when the sources are missing, the build fails, the span self-time
test fails, or an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("records_crowd", "certify_2m", "serve_mixed")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    # The self-time arithmetic the traced metrics rely on.
    subprocess.run([os.path.join(build_dir, "perfbench_trace_test")],
                   check=True, stdout=sys.stderr)


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "humo.h")):
        print("perfbench: src/humo.h not found next to perfbench/; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")

    if args.workload != "all":
        return run_one(binary, args.workload, args)

    # Every workload, each in its own process (peak RSS is per process).
    status = 0
    for workload in WORKLOADS:
        status = run_one(binary, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
