#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the scenario engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-sweep|warm-hits|miss-churn \
        --seed N --seconds S --trace 0|1

The first run in a checkout compiles the engine sources and the
benchmark (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build) and computes the resident cache the serve workloads load.
Later runs reuse both.  Build output goes to stderr; the benchmark's
notes and its one-line JSON result go to stdout, the result last.

Exit status: the benchmark's own (0 all bytes correct, 1 a wrong byte),
2 when the build or the resident cache cannot be made, 3 on a timeout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    binary = os.path.join(build_dir, "rv_perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return binary if os.path.exists(binary) else None


def resident_cache(binary, build_dir):
    """The resident cache, rebuilt whenever the benchmark binary changes."""
    with open(binary, "rb") as f:
        stamp = hashlib.sha256(f.read()).hexdigest()
    base = os.path.join(build_dir, "resident")
    marker = os.path.join(base, "BUILT_BY")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == stamp:
                return base
    shutil.rmtree(base, ignore_errors=True)
    staging = base + ".partial"
    shutil.rmtree(staging, ignore_errors=True)
    if subprocess.run([binary, "--build-base", staging],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    with open(os.path.join(staging, "BUILT_BY"), "w") as f:
        f.write(stamp)
    os.rename(staging, base)
    return base


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 2
    base = resident_cache(binary, build_dir)
    if base is None:
        log("could not compute the resident cache")
        return 2
    # A traced run's layer self times must account for the untraced
    # time within set_ms_p50's bound.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "set_ms_p50")
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work", os.path.join(build_dir, "run"), "--base", base,
               "--repo", root, "--trace-bound", str(bound), *extra]
    try:
        return subprocess.run(command, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
