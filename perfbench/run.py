#!/usr/bin/env python3
"""Builds the reasoner, vadalogd and the perfbench program from source, then
runs one workload and passes its result line through.

Run from the repository root:

    python3 perfbench/run.py --workload cold_search --seed 1 --seconds 10 --trace 0

Workloads: cold_search, warm_serve. The build goes to
.bench_build/perfbench (Release); traced runs write their span files to
.bench_out/. The last line of stdout is the result JSON object. Exit code:
0 on a correct run, 1 when an output check failed, 2 when the build or the
arguments failed. `--self-test flip|drop` corrupts one of the benchmark's
own comparison inputs, so the run must exit 1.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cold_search", "warm_serve")


def build():
    """Configures once, then brings the two binaries up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "vadalogd",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", choices=("flip", "drop"))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the reasoner's sources are not beside perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--vadalogd", os.path.join(BUILD, "vadalog", "tools", "vadalogd"),
        "--out-dir", OUT,
    ]
    if args.self_test:
        command += ["--self-test", args.self_test]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
