#!/usr/bin/env python3
"""Build and run the DOoC real-engine benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, then runs the benchmark from the repository root.
Storage scratch and span files go to .perfbench/. With --workload all it
runs every workload, untraced and traced, and prints each ledger. The last
stdout line is the JSON result of the (last) run.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["spmv-ooc", "spmv-codec", "lanczos", "spmv-fine"]
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    # The library reads DOOC_* variables (codec, faults, replication,
    # telemetry, tracing); the benchmark configures all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOOC_")}
    cmd = [os.path.join(BUILD, "perfbench"), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace, "--workdir=" + WORKDIR,
           "--refdir=" + os.path.join(ROOT, "perfbench")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    sys.stdout.flush()
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc = run_one(workload, args.seed, args.seconds, trace)
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
