#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, interleaved.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--workload W ...]

For each workload it makes `--runs` pairs of runs, seed i for both sets,
alternating which set runs first in each pair. It prints, per (workload,
metric), each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and whether the two medians agree within the
metric's bound in BENCHMARK.json. It also compares the share of failed
operations of the two sets. Exit 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """How much the second median is worse than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for which in order:
                sets[which].append(run_once(workload, i + 1, seconds))
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        exact = [{r["failed"] * 1.0 / r["attempted"] for r in s} for s in sets]
        same_share = len(exact[0] | exact[1]) == 1
        ok &= same_share
        print(f"{workload}: failed share {shares[0]:.6f} / {shares[1]:.6f}"
              f" ({'same in every run' if same_share else 'DIFFERS'})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            drift = worse_by(a[0], b[0], metric["better"])
            agree = drift <= bound
            steady = name == "setup_s" or max(a[3], b[3]) <= bound
            ok &= agree and steady
            print(f"  {name:14s} A {a[0]:.4g} [{a[1]:.4g}, {a[2]:.4g}]"
                  f" spread {a[3]:.3f} | B {b[0]:.4g} [{b[1]:.4g}, {b[2]:.4g}]"
                  f" spread {b[3]:.3f} | bound {bound} (a third: "
                  f"{bound / 3:.3f}) | B worse by {drift:+.3f}"
                  f" {'ok' if agree and steady else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
