#!/usr/bin/env python3
"""End-to-end benchmark of the TASTI library.

Builds perfbench/ (and the library it links) from the checkout's sources,
runs one workload in its own process and prints, as the last line of
standard output, one JSON object:

    {"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a traced run.
The line before it carries informational details: answer digest,
guarantee coverage, latency sample count and the environment stamp.

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 10 --trace 0

Workloads: analyst, serve, dashboard (see perfbench/README.md). --tiny
runs them at toy sizes for the smoke test.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tasti_perfbench"
WORKLOADS = ("analyst", "serve", "dashboard")
# A run must end within 180 s; keep a margin for start-up and parsing.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no TASTI sources (CMakeLists.txt, src/) in {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "tasti_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    start = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("workload printed no result")
    details = json.loads(lines[-2])
    result = json.loads(lines[-1])
    details["run_wall_s"] = time.monotonic() - start

    metrics = {}
    for metric in expected_metrics(args.trace):
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} [{metric['unit']}] missing or "
                 f"mislabelled: {got}")
        metrics[metric["name"]] = got
    print(json.dumps(details))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
