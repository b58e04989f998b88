#!/usr/bin/env python3
"""Smoke test for the benchmark (about a minute after the first build).

Runs every workload of BENCHMARK.json at toy size (--tiny), untraced and
traced, and fails unless each run exits 0, passes its correctness checks,
and emits exactly the metrics BENCHMARK.json names, with their units. It
also checks that a fixed seed reproduces the analyst answers bit for bit,
and that the benchmark refuses to run without the library sources.

    python3 perfbench/smoke_test.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, trace, seed=7, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def check_run(workload, trace):
    proc = run(workload, trace)
    name = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{name}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        expect(False, f"{name}: no result printed")
        return None
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{name}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{name}: correct is false")
    expect(result["failed"] == 0, f"{name}: {result['failed']} failed")
    expect(result["attempted"] >= 1, f"{name}: nothing attempted")
    expect(details["attribution_ok"] is True, f"{name}: attribution")

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
           f"{name}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        expect(got.get("unit") == metric["unit"],
               f"{name}: {metric['name']} unit {got.get('unit')}")
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{name}: {metric['name']} value {value}")

    env = details["env"]
    for key in ("nproc", "compiler", "build_type", "tasti_native", "host_isa"):
        expect(key in env, f"{name}: env stamp lacks {key}")
    expect(re.fullmatch(r"[0-9a-f]{16}", details["digest"]) is not None,
           f"{name}: digest {details['digest']}")
    if trace:
        # Self times of build stages on the building thread fit in the build.
        m = {k: v["value"] for k, v in result["metrics"].items()}
        stages = sum(m[f"index.{s}.self_s"] for s in
                     ("fpf_mine", "triplet_train", "embed", "select_reps",
                      "min_k"))
        expect(stages <= m["core.build_s"] * 1.01 + 1e-3,
               f"{name}: build stage self times {stages} > build {m['core.build_s']}")
    return details


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace in (0, 1):
            details = check_run(workload, trace)
            if details is not None and workload == "analyst" and trace == 0:
                again = json.loads(run(workload, 0).stdout.strip()
                                   .splitlines()[-2])
                expect(again["digest"] == details["digest"],
                       "analyst: same seed gave different answers")

    # Without the library sources next to it the benchmark must refuse to
    # run: nonzero exit, no result line.
    isolated = ROOT / ".bench_build" / "smoke_isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(HERE, isolated / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    proc = run(names[0], 0, cwd=isolated,
               script=isolated / "perfbench" / "run.py")
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "isolated copy without sources did not fail cleanly")
    shutil.rmtree(isolated, ignore_errors=True)

    if failures:
        print(f"{len(failures)} smoke check(s) failed", file=sys.stderr)
        return 1
    print(f"smoke test passed: {len(names)} workloads, untraced and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
