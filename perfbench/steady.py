#!/usr/bin/env python3
"""Repeated runs of one workload: medians and quartiles against bounds.

    python3 perfbench/steady.py --workload cold-sweep [--runs 10] [--seed 1]
    python3 perfbench/steady.py --workload warm-hits --against ../parent

Run from the root of a checkout.  Each run uses its own seed (seed,
seed+1, ...) and BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the median, the quartiles as statistics.quantiles(n=4)
gives them, and their spread (Q3 - Q1) / median against the metric's
bound; a spread above the bound makes the exit status 1, as does any run
that reports a wrong byte or fails to produce a result.

With --against OTHER, OTHER is a second checkout (the parent, say) run
with the same seeds and settings; the two sides alternate which runs
first in each pair.  The report then gives both sides' medians and
quartiles and flags a metric whose median got worse by more than its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, done.returncode
    return result, done.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values):
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--against", help="root of a second checkout to compare with")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = {"this": os.getcwd()}
    if args.against:
        sides["other"] = os.path.abspath(args.against)
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    status = 0
    for i in range(args.runs):
        seed = args.seed + i
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            result, code = run_once(sides[side], args.workload, seed, seconds, 0)
            if result is None or code != 0 or not result["correct"]:
                print(f"{side} seed {seed}: run failed (exit {code})")
                status = 1
                continue
            print(f"{side} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    header = f"{'metric':14} {'side':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    print(header)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = {}
        for side in sides:
            vals = values[side][name]
            if not vals:
                continue
            q1, q2, q3, spread = describe(vals)
            medians[side] = q2
            verdict = "" if spread <= bound else "  SPREAD OVER BOUND"
            if spread > bound:
                status = 1
            print(f"{name:14} {side:6} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f}"
                  f"{verdict}")
            print(f"{'':21} runs: {' '.join(f'{v:.4g}' for v in sorted(vals))}")
        if len(medians) == 2:
            this, other = medians["this"], medians["other"]
            change = (this - other) / other if other else 0.0
            worse = change > bound if m["better"] == "lower" else -change > bound
            print(f"{'':14} this vs other: {change:+.3f}{'  WORSE BY MORE THAN BOUND' if worse else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
