"""Summarize benchmark results into one trajectory point.

    python3 perfbench/summarize.py [RESULTS_DIR] > perfbench/trajectory/<commit>.json

Reads every record `run.py` wrote to RESULTS_DIR (default
`.bench_build/perfbench/results`).  For each workload it prints the median,
quartiles and spread (interquartile distance over median) of every
end-to-end metric over the untraced runs, and every per-layer metric of each
traced run, keyed by seed so that counts stay exact.  The keys are the same
for every commit.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        ROOT / ".bench_build" / "perfbench" / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    if not records:
        raise SystemExit(f"no results under {results}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    by_workload = defaultdict(lambda: {0: [], 1: []})
    for r in records:
        by_workload[r["workload"]][r["trace"]].append(r)

    out = {"env": records[0]["env"], "run_seconds": bench["run_seconds"],
           "workloads": {}}
    for w in bench["workloads"]:
        plain, traced = (sorted(by_workload[w["name"]][t], key=lambda r: r["seed"])
                         for t in (0, 1))
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "correct": all(r["correct"] for r in plain + traced),
                 "commands_per_run": [len(r["commands"]) for r in plain],
                 "end_to_end": {}, "per_layer": {}}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in plain]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "n": len(vals), "median": med, "q1": q1,
                "q3": q3, "spread": (q3 - q1) / med if med else None}
        for r in traced:
            entry["per_layer"][str(r["seed"])] = {
                m["name"]: r["metrics"][m["name"]]["value"] for m in bench["per_layer"]}
        out["workloads"][w["name"]] = entry
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
