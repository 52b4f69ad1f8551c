#!/usr/bin/env python3
"""Records a baseline: runs every workload of BENCHMARK.json once per seed,
untraced, and once traced at the default seed, and writes medians,
quartiles and spreads to a JSON file.

The spread of a metric is the distance between the first and third
quartile of its values over the seeds (statistics.quantiles, n=4), as a
share of their median. Each end-to-end spread is printed next to the
metric's bound.

Usage (from the repository root):
  python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=ROOT)
    run_s = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"baseline: {workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["run_s"] = run_s  # the whole command, build check included
    return values


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def host():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "build_type": "Release",
            "system": platform.platform()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"host": host(), "seeds": [first, last], "run_seconds": spec["run_seconds"],
           "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in range(first, last + 1)]
        e2e = {m: describe([r[m] for r in runs]) for m in list(bounds) + ["run_s"]}
        traced = run_once(name, 1, spec["run_seconds"], 1)
        out["workloads"][name] = {"end_to_end": e2e, "per_layer_seed1": traced}
        for m, d in e2e.items():
            if m not in bounds:
                continue
            mark = "ok" if d["spread"] <= bounds[m] / 3 else (
                "within bound" if d["spread"] <= bounds[m] else "OVER BOUND")
            print(f"{name:14} {m:16} median {d['median']:<12.6g} spread {d['spread']:.3f} "
                  f"(bound {bounds[m]}) {mark}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
