#!/usr/bin/env python3
"""Compare google-benchmark JSON output against a committed baseline.

Usage:
    bench_compare.py BASELINE CURRENT [BASELINE CURRENT ...]
                     [--time-tolerance 0.25] [--counter-tolerance 0.05]
                     [--deltas-json PATH] [--update-baselines]
    bench_compare.py --summarize DELTAS_JSON

Each (BASELINE, CURRENT) pair is a google-benchmark ``--benchmark_out``
JSON file, ideally produced with ``--benchmark_repetitions=N`` so median
aggregates are available; without aggregates the median over the raw
iteration entries is computed here.

Two families of values are gated, with separate tolerances:

  * wall time — the benchmark's ``real_time`` and any counter whose name
    looks time-like (``s_<stage>``, ``flow_seconds``). Runner-dependent, so
    the default tolerance is generous (25%), and measurements below the
    noise floor (default 1 ms) are reported but never gated: a stage that
    takes tens of microseconds jitters far more than 25% between runs
    without anything having regressed. Benchmarks matching
    ``--noisy-pattern`` (default: ``BM_Portfolio/1/``, the concurrent
    portfolio race, whose wall time is scheduler-bound) get the wider
    ``--noisy-time-tolerance`` instead (default 60%). The single-threaded
    ``process_time`` variants keep the regular tolerance.
  * algorithm counters — every other user counter (probe counts, labels
    computed, cache hits, ...). These are deterministic replays of the same
    workload, so even a small growth is a real regression (default 5%).

Improvements (a value that shrank by more than the same tolerance) are
reported as such — they never fail the gate, but they are the signal to
refresh the baselines so later regressions are measured from the new level.
``--update-baselines`` copies each CURRENT file over its BASELINE path
after the comparison. ``--deltas-json`` records every per-benchmark delta
(regressions, improvements and drift alike) as structured JSON;
``--summarize`` renders such a file as a short markdown digest (used for
the CI job summary).

A benchmark present in the baseline but missing from the current run is a
failure (a silently dropped benchmark must not pass the gate); a benchmark
only in the current run is reported but does not fail. Improvements never
fail. Exit status: 0 clean, 1 regression, 2 bad invocation/input.
"""

import argparse
import json
import math
import re
import shutil
import sys
from statistics import median

TIME_LIKE_COUNTERS = ("flow_seconds",)
TIME_LIKE_PREFIXES = ("s_",)

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def is_time_like(counter_name):
    return counter_name in TIME_LIKE_COUNTERS or any(
        counter_name.startswith(p) for p in TIME_LIKE_PREFIXES
    )


def load_medians(path):
    """Returns {benchmark name: {"real_time_ns": float, "counters": {...}}}."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    entries = doc.get("benchmarks", [])
    aggregates = {}
    iterations = {}
    for entry in entries:
        unit = TIME_UNIT_NS.get(entry.get("time_unit", "ns"), 1.0)
        record = {
            "real_time_ns": float(entry.get("real_time", 0.0)) * unit,
            "counters": {
                k: float(v)
                for k, v in entry.items()
                if isinstance(v, (int, float)) and not k.startswith(("real_", "cpu_"))
                and k not in ("iterations", "repetitions", "repetition_index",
                              "threads", "family_index", "per_family_instance_index")
            },
        }
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                aggregates[entry["run_name"]] = record
        else:
            iterations.setdefault(entry.get("run_name", entry["name"]), []).append(record)
    if aggregates:
        return aggregates
    # No aggregates (run without --benchmark_repetitions): take medians here.
    result = {}
    for name, records in iterations.items():
        counters = {}
        for key in records[0]["counters"]:
            counters[key] = median(r["counters"].get(key, 0.0) for r in records)
        result[name] = {
            "real_time_ns": median(r["real_time_ns"] for r in records),
            "counters": counters,
        }
    return result


def compare_value(name, what, base, cur, tolerance, deltas, gated=True):
    if base <= 0.0:
        return
    ratio = cur / base
    delta = {
        "benchmark": name,
        "metric": what,
        "baseline": base,
        "current": cur,
        "change": ratio - 1.0 if not math.isnan(ratio) else None,
        "tolerance": tolerance,
        "gated": gated,
    }
    if not gated:
        delta["status"] = "below-noise-floor" if ratio > 1.0 + tolerance else "ok"
    elif math.isnan(ratio) or ratio > 1.0 + tolerance:
        delta["status"] = "regression"
    elif ratio < 1.0 - tolerance:
        delta["status"] = "improvement"
    elif ratio != 1.0:
        delta["status"] = "drift"
    else:
        delta["status"] = "ok"
    deltas.append(delta)


def compare_files(baseline_path, current_path, args, deltas):
    baseline = load_medians(baseline_path)
    current = load_medians(current_path)
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            deltas.append({"benchmark": name, "metric": "(benchmark)",
                           "status": "missing",
                           "detail": f"present in {baseline_path} but missing from the run"})
            continue
        floor_ns = args.time_noise_floor_ms * 1e6
        time_tolerance = (args.noisy_time_tolerance
                          if re.search(args.noisy_pattern, name) else args.time_tolerance)
        compare_value(name, "real_time", base["real_time_ns"], cur["real_time_ns"],
                      time_tolerance, deltas,
                      gated=max(base["real_time_ns"], cur["real_time_ns"]) >= floor_ns)
        for counter, base_value in sorted(base["counters"].items()):
            cur_value = cur["counters"].get(counter)
            if cur_value is None:
                deltas.append({"benchmark": name, "metric": f"counter {counter}",
                               "status": "missing",
                               "detail": "counter disappeared from the run"})
                continue
            if is_time_like(counter):
                # Time-like counters are in seconds.
                floor_s = args.time_noise_floor_ms * 1e-3
                compare_value(name, f"counter {counter}", base_value, cur_value,
                              time_tolerance, deltas,
                              gated=max(base_value, cur_value) >= floor_s)
            else:
                compare_value(name, f"counter {counter}", base_value, cur_value,
                              args.counter_tolerance, deltas)
    for name in sorted(set(current) - set(baseline)):
        deltas.append({"benchmark": name, "metric": "(benchmark)", "status": "new",
                       "detail": "new benchmark (no baseline yet)"})


def format_delta(delta):
    if "detail" in delta:
        return f"{delta['benchmark']}: {delta['detail']}"
    return (f"{delta['benchmark']}: {delta['metric']} "
            f"{delta['baseline']:.6g} -> {delta['current']:.6g} "
            f"({delta['change']:+.1%})")


def summarize(path):
    """Markdown digest of a --deltas-json file (for CI job summaries)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            deltas = json.load(f)["deltas"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        raise SystemExit(f"bench_compare: cannot read deltas from {path}: {e}")
    by_status = {}
    for delta in deltas:
        by_status.setdefault(delta["status"], []).append(delta)
    print("### Benchmark gate")
    print()
    counts = ", ".join(f"{len(v)} {k}" for k, v in sorted(by_status.items()))
    print(f"{len(deltas)} comparison(s): {counts or 'none'}")
    sections = [("regression", "Regressions (gate failures)"),
                ("missing", "Missing benchmarks/counters (gate failures)"),
                ("improvement", "Improvements (consider refreshing baselines)"),
                ("drift", "Within-tolerance drift"),
                ("below-noise-floor", "Below the noise floor (not gated)"),
                ("new", "New benchmarks")]
    for status, title in sections:
        entries = by_status.get(status, [])
        if not entries:
            continue
        print()
        print(f"**{title}**")
        for delta in entries:
            print(f"- {format_delta(delta)}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="BASELINE CURRENT",
                        help="pairs of baseline and current benchmark JSON files")
    parser.add_argument("--time-tolerance", type=float, default=0.25,
                        help="allowed relative wall-time growth (default 0.25)")
    parser.add_argument("--counter-tolerance", type=float, default=0.05,
                        help="allowed relative counter growth (default 0.05)")
    parser.add_argument("--time-noise-floor-ms", type=float, default=1.0,
                        help="wall-time measurements where both sides are below this "
                             "many milliseconds are reported but not gated (default 1.0)")
    parser.add_argument("--noisy-pattern", default=r"BM_Portfolio/1/",
                        help="regex for benchmarks whose wall time is scheduler-bound "
                             "(default: the concurrent portfolio race, BM_Portfolio/1/)")
    parser.add_argument("--noisy-time-tolerance", type=float, default=0.60,
                        help="wall-time tolerance for --noisy-pattern matches (default 0.60)")
    parser.add_argument("--deltas-json", metavar="PATH",
                        help="write every per-benchmark delta as structured JSON")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy each CURRENT file over its BASELINE path after "
                             "comparing (refresh after an intentional perf change)")
    parser.add_argument("--summarize", metavar="DELTAS_JSON",
                        help="print a markdown digest of a --deltas-json file and exit")
    args = parser.parse_args(argv)
    if args.summarize:
        if args.files:
            parser.error("--summarize takes no BASELINE CURRENT pairs")
        return summarize(args.summarize)
    if not args.files or len(args.files) % 2 != 0:
        parser.error("expected BASELINE CURRENT pairs")

    deltas = []
    for i in range(0, len(args.files), 2):
        compare_files(args.files[i], args.files[i + 1], args, deltas)

    if args.deltas_json:
        with open(args.deltas_json, "w", encoding="utf-8") as f:
            json.dump({"deltas": deltas}, f, indent=2)
            f.write("\n")

    failures = [d for d in deltas if d["status"] in ("regression", "missing")]
    improvements = [d for d in deltas if d["status"] == "improvement"]
    notes = [d for d in deltas if d["status"] in ("drift", "below-noise-floor", "new")]

    for delta in improvements:
        print(f"improved: {format_delta(delta)}")
    for delta in notes:
        suffix = " below the noise floor, not gated" \
            if delta["status"] == "below-noise-floor" else ""
        print(f"note: {format_delta(delta)}{suffix}")

    if args.update_baselines:
        for i in range(0, len(args.files), 2):
            shutil.copyfile(args.files[i + 1], args.files[i])
            print(f"bench_compare: refreshed {args.files[i]} from {args.files[i + 1]}")

    if failures:
        print(f"bench_compare: {len(failures)} regression(s):", file=sys.stderr)
        for delta in failures:
            tol = delta.get("tolerance")
            suffix = f" exceeds +{tol:.0%} tolerance" if tol is not None else ""
            print(f"  FAIL: {format_delta(delta)}{suffix}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(improvements)} improvement(s), "
          f"{len(notes)} drift note(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
