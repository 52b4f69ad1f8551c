#!/usr/bin/env python3
"""Per-layer self-time table from a perfbench span file.

A span file is what `perfbench --trace 1 --spans PATH` writes: one JSON
object per line with id, job, parent, layer, name, start and end (seconds),
and, on each job's root span, the job's untraced wall time (job_wall_s).

A span's self time is its duration minus the time its child spans cover.
The table sums self time per layer. Two figures relate the traced replay to
the untraced run:

  coverage  self time of the layers a job runs itself (decomp, core,
            mapping, retime, cache), over the jobs' untraced wall time;
            near 1.0 when the replayed layers account for the wall time.
  overhead  traced replay time of those layers plus the replay's own glue,
            minus the untraced wall time, as a share of the untraced wall
            time: what tracing the layers one call at a time costs.

Usage: python3 perfbench/trace_table.py SPANS.jsonl [SPANS.jsonl ...]
"""

import json
import sys

# Layers a job runs itself. netlist and verify spans are checks the replay
# adds (BLIF round trip, audit); workloads spans are set-up.
JOB_LAYERS = ("decomp", "core", "mapping", "retime", "cache")


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(spans):
    child_s = {}
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers = {}
    jobs_wall = glue = 0.0
    jobs = 0
    for s in spans:
        self_s = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
        entry = layers.setdefault(s["layer"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        if s["parent"] < 0 and s["job"] >= 0:
            jobs += 1
            jobs_wall += s["job_wall_s"]
            glue += self_s
    replayed = sum(layers.get(name, {"self_s": 0.0})["self_s"] for name in JOB_LAYERS)
    return {
        "layers": layers,
        "jobs": jobs,
        "jobs_wall_s": jobs_wall,
        "coverage": replayed / jobs_wall if jobs_wall > 0 else 0.0,
        "overhead_ratio": (replayed + glue - jobs_wall) / jobs_wall if jobs_wall > 0 else 0.0,
    }


def metrics(summary, layer_names):
    """Flat metric dict: self_s.<layer> for each name, plus trace.*."""
    out = {}
    for name in layer_names:
        value = summary["layers"].get(name, {"self_s": 0.0})["self_s"]
        out["self_s." + name] = {"value": value, "unit": "s"}
    out["trace.coverage"] = {"value": summary["coverage"], "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": summary["overhead_ratio"], "unit": "ratio"}
    return out


def render(summary):
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    total = sum(v["self_s"] for _, v in rows) or 1.0
    lines = [f"{'layer':<10} {'calls':>7} {'self_s':>10} {'share':>7}"]
    for name, v in rows:
        lines.append(
            f"{name:<10} {v['calls']:>7} {v['self_s']:>10.4f} {100 * v['self_s'] / total:>6.1f}%"
        )
    lines.append(
        f"jobs {summary['jobs']}, untraced wall {summary['jobs_wall_s']:.4f} s, "
        f"coverage {summary['coverage']:.3f}, overhead {100 * summary['overhead_ratio']:+.1f}%"
    )
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    for path in argv[1:]:
        print(f"== {path}")
        print(render(summarize(load(path))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
