#!/usr/bin/env python3
"""Builds the testbed benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ycsb_a_protocol --seed 42 \
        --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. With
--trace 1 the host and simulated spans of the traced run are written to
<build dir>/traces/<workload>-seed<seed>.tsv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpcc_paper", "ycsb_a_protocol", "ycsb_b_read_mostly")
# A run measures for --seconds and then finishes its last whole repetition
# and the checks; this caps a hung run well inside any outer time limit.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds; returns the benchmark binary or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "testbed_bench")
    return binary if os.path.isfile(binary) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("perfbench: the benchmark produced no result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
