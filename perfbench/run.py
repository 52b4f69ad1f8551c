#!/usr/bin/env python3
"""Builds the benchmark in Release mode and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload turbosyn_fsm|map_baselines|cache_replay \
      --seed N --seconds S --trace 0|1 [--quick] [--shift-circuits]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; compiler output goes to stderr. The last line of stdout is
the result JSON. With --trace 1 the span file is kept under
<build>/spans/ and its per-layer self times are added to the metrics.
Exits nonzero when the build fails or any output is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_table  # noqa: E402

TRACE_LAYERS = ("decomp", "core", "mapping", "retime", "cache", "netlist", "verify", "workloads",
                "job")
BENCH_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(out_dir):
    build_dir = os.path.join(out_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--shift-circuits", action="store_true",
                    help="map_baselines: derive new generator seeds from --seed")
    args = ap.parse_args()

    out_dir = build_root()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    spans = None
    if args.trace:
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        spans = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    if args.quick:
        cmd.append("--quick")
    if args.shift_circuits:
        cmd.append("--shift-circuits")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {BENCH_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    if spans is not None:
        summary = trace_table.summarize(trace_table.load(spans))
        print(trace_table.render(summary), file=sys.stderr)
        result["metrics"].update(trace_table.metrics(summary, TRACE_LAYERS))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
