#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a short (--quick) pass of every
workload at a non-default seed, untraced and traced.

Checks that every metric BENCHMARK.json names is printed with a finite
value, that the traced replay agrees with every job (the run reports
correct), and that two seeds give different circuits exactly where they
should: in cache_replay, which draws its edits from the seed, and in
map_baselines with --shift-circuits. Without that flag map_baselines, like
turbosyn_fsm, runs the Table-1 specs at every seed.

Usage (from the repository root): python3 perfbench/smoke.py
Takes about a minute after the build; exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = (7, 8)


def fail(msg):
    print(f"smoke: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEEDS[0]), "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} jobs failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
            fail(f"{workload} trace={trace}: metric {m['name']} missing, non-finite or wrong unit")
    print(f"smoke: {workload} trace={trace}: {result['attempted']} jobs, "
          f"{len(wanted)} metrics ok")


def inputs(binary, workload, seed, *extra):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--list-inputs",
         "--work-dir", os.path.join(run.build_root(), f"work-smoke-{os.getpid()}"), *extra],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    binary = run.build(run.build_root())
    for w in spec["workloads"]:
        name = w["name"]
        a, b = (inputs(binary, name, s) for s in SEEDS)
        if (a == b) != (name != "cache_replay"):
            fail(f"{name}: seeds {SEEDS} give {'the same' if a == b else 'different'} circuits")
        if name == "map_baselines":
            a, b = (inputs(binary, name, s, "--shift-circuits") for s in SEEDS)
            if a == b:
                fail(f"{name} --shift-circuits: seeds {SEEDS} give the same circuits")
        for trace in (0, 1):
            check_run(spec, name, trace)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
