"""Measure a baseline: two sets of seeded runs per workload plus one traced run.

    python3 perfbench/baseline.py --workloads corpus,cli,oracle --runs 10

Each run is `run.py --trace 0` for BENCHMARK.json's run_seconds with its own
seed: seeds 1..runs in the first set, runs+1..2*runs in the second, and the
second set starts after the first has finished on every workload.  For every
end-to-end metric and set it records the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread (q3 - q1) / median, and flags a
spread that is not below a third of the metric's bound.  It also records how
much worse the second set's median is than the first's, and flags a change
beyond the bound.  One `--trace 1` run per workload adds the per-layer
table.  Results are merged into perfbench/baseline.json, keyed by workload,
with the run context.  The exit code is 1 if anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run.py run: (result line, context line, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(l[len("context: "):]) for l in lines if l.startswith("context: "))
    return json.loads(lines[-1]), context, wall


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "spread_below_third_of_bound": spread < bound / 3.0}


def measure_set(workload: str, seeds: range, seconds: int, bounds: dict) -> tuple[dict, dict]:
    """Ten (or --runs) runs: (the set's record, the context of its last run)."""
    runs, walls = [], []
    context = None
    for seed in seeds:
        res, context, wall = bench(workload, seed, seconds, 0)
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        walls.append(wall)
        print(f"{workload} seed {seed}: {wall:.1f} s, " + ", ".join(
            f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    summary = {name: summarize([r["metrics"][name] for r in runs], bounds[name])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"  {name}: median {s['median']:.4g}, spread {s['spread']:.3f} (bound "
              f"{bounds[name]}){'' if s['spread_below_third_of_bound'] else '  <-- too wide'}",
              flush=True)
    record = {
        "seeds": [seeds.start, seeds.stop - 1],
        "wall_s_per_run": statistics.median(walls),
        "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        "summary": summary,
        "runs": runs,
    }
    return record, context


def agreement(first: dict, second: dict, spec: list[dict]) -> dict:
    """How much worse each median of the second set is than the first's."""
    out = {}
    for m in spec:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        change = (b - a) / a
        worse_by = change if m["better"] == "lower" else -change
        out[m["name"]] = {"change": change, "worse_by": worse_by, "bound": m["bound"],
                          "within_bound": worse_by <= m["bound"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",")

    out_path = HERE / "baseline.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    entries = {}
    for k in range(SETS):
        seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
        for workload in names:
            record, context = measure_set(workload, seeds, seconds, bounds)
            if k == 0:
                traced, _, trace_wall = bench(workload, 1, seconds, 1)
                entries[workload] = {
                    "context": {key: v for key, v in context.items() if key != "seed"},
                    "run_seconds": seconds,
                    "sets": [],
                    "trace_wall_s": trace_wall,
                    "per_layer": {"seed": 1, "metrics": {key: v["value"] for key, v
                                                         in traced["metrics"].items()}},
                }
            entry = entries[workload]
            entry["sets"].append(record)
            if k == SETS - 1:
                entry["second_vs_first"] = agreement(
                    entry["sets"][0]["summary"], record["summary"], spec["end_to_end"])
            doc["workloads"][workload] = entry
            out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    ok = True
    for workload in names:
        entry = doc["workloads"][workload]
        for record in entry["sets"]:
            ok &= all(s["spread_below_third_of_bound"] for s in record["summary"].values())
        for name, a in entry["second_vs_first"].items():
            ok &= a["within_bound"]
            print(f"{workload} {name}: second set {a['change']:+.3f} vs first "
                  f"(bound {a['bound']}){'' if a['within_bound'] else '  <-- beyond bound'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
