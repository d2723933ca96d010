#!/usr/bin/env python3
"""Builds bench_e2e from source, runs one workload, prints one result line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the stack's sources are found relative
to this file, and the build goes to .bench_build/e2e at the checkout root.
With --trace 0 the result carries the end-to-end metrics BENCHMARK.json
lists, with --trace 1 its per-layer metrics.  The last line of standard
output is the JSON result; the build log and the benchmark's own tables go
to standard error.  Exits 0 only when the correctness gate passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
# The binary measures for --seconds and then runs its untimed checks and
# probes; anything past this is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the stack's sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "bench_e2e"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    out = os.path.join(BUILD, "result-%d.json" % os.getpid())
    cmd = [os.path.join(BUILD, "bench_e2e"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--json=" + out]
    if args.trace:
        cmd += ["--traced", "--probes"]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    if not os.path.isfile(out):
        fail("bench_e2e exited %d without a report" % code)
    with open(out) as f:
        report = json.load(f)
    os.remove(out)

    measured = {m["name"]: m["value"] for m in report["metrics"]}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("report lacks " + ", ".join(missing))
    correct = code == 0 and report["meta"].get("correct") == "true"
    result = {
        "correct": correct,
        "attempted": int(measured["gate.attempted_flows"]),
        "failed": int(measured["gate.failed_flows"]),
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
