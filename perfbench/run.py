"""spin7 benchmark: seeded workloads against the public API and the CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads: corpus, cli and oracle (the ones BENCHMARK.json lists), and
generic_metric (see README.md for why it is not listed yet).

--trace 0 measures the end-to-end metrics.  Set-up is timed in several
fresh processes and reported as their median; every op's output is checked.
Times are scaled to a reference host speed with a speed probe taken before
and after every op and every set-up (README.md says why).
--trace 1 runs half the time untraced and half with spans around every
public spin7 function, and reports the per-layer metrics and the tracing
overhead; the raw spans go to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric with its unit, including
failed_frac and check_fail_frac, and the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from worker import PROBE_REF_S, slowdowns, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "spin7"

WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_RUNS = 5          # fresh processes whose set-up time gives setup_s
RUN_LIMIT_S = 170.0     # a run ends within this, whatever the workers do

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Degree buckets that occur on at least one workload.
CE_DEGREES = (1, 2, 3, 4)
WEDGE_DEGREES = (2, 3, 4, 5, 6, 7)
RAISE_DEGREES = (1, 2, 3, 4, 5, 6, 7)
STAR_DEGREES = (1, 2, 3, 4, 5, 6, 7)
DENSE_STAR_DEGREES = (1, 2, 3, 4)
DENSE_WEDGE_DEGREES = (2, 3, 4)

BUILD_STAGES = ("structure.metric_from_phi", "connection.lee_form", "connection.spin7_torsion",
                "connection.levi_civita", "connection.connection_from_torsion",
                "connection.curvature")
CHECK_GROUPS = ("checks.check_structure", "checks.check_algebra",
                "checks.check_connection_contracts", "checks.check_lee_and_torsion",
                "checks.check_bianchi_family", "connection.dt_via_expansion",
                "checks.check_ricci_relations", "checks.check_spin7_ricci",
                "checks.check_riemannian_bianchi", "checks.check_s2lambda2",
                "checks.check_closed_torsion", "checks.check_symmetric_ricci",
                "checks.check_second_bianchi", "checks.check_main_theorems",
                "checks.check_soliton", "checks.classify_fernandez", "checks.check_bi_spin7",
                "structure.validate_phi", "structure.project_lambda2",
                "structure.project_lambda3")


def _per_layer() -> tuple:
    calls, self_s, total_s = "count/op", "s/op", "s/op"
    out = []
    for k in CE_DEGREES:
        out += [(f"liealgebra.ce_differential.d{k}.calls", calls),
                (f"liealgebra.ce_differential.d{k}.self_s", self_s)]
    out += [("liealgebra.ce_differential.distinct_frac", "ratio"),
            ("forms.KForm.__add__.calls", calls),
            ("forms.validate_multi_index.calls", calls)]
    for k in WEDGE_DEGREES:
        out += [(f"forms.wedge.d{k}.calls", calls), (f"forms.wedge.d{k}.self_s", self_s)]
    for k in RAISE_DEGREES:
        out += [(f"forms.raise_coeffs.d{k}.calls", calls),
                (f"forms.raise_coeffs.d{k}.self_s", self_s)]
    out.append(("forms.raise_coeffs.distinct_frac", "ratio"))
    for k in STAR_DEGREES:
        out += [(f"forms.hodge_star.d{k}.calls", calls),
                (f"forms.hodge_star.d{k}.self_s", self_s)]
    out += [("forms.contract_into.self_s", self_s), ("forms.interior_product.self_s", self_s)]
    out += [(f"{name}.self_s", self_s) for name in BUILD_STAGES]
    out.append(("geometry.Geometry.build.total_s", total_s))
    out += [(f"{name}.self_s", self_s) for name in CHECK_GROUPS]
    out.append(("checks.full_report.total_s", total_s))
    out += [(f"dense.dense_star.d{k}.self_s", self_s) for k in DENSE_STAR_DEGREES]
    out += [(f"dense.dense_wedge.d{k}.self_s", self_s) for k in DENSE_WEDGE_DEGREES]
    out += [("dense.dense_full_contraction.self_s", self_s),
            ("dense.dense_components.self_s", self_s)]
    out += [("cli.import_s", "s"), ("corpus.get_algebra.self_s", self_s),
            ("cli.main.total_s", total_s), ("report.VerificationReport.to_json.self_s", self_s)]
    out += [("trace.untraced_p50_s", "s"), ("trace.traced_p50_s", "s"),
            ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
    return tuple(out)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# context

def run_context(seed: int) -> dict:
    """What a result depends on: code, seed, machine and library versions."""
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_spin7_lines": lines,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# processes

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: list[str], probe: str,
                 deadline: float) -> tuple[tuple[float, list[float]], dict]:
    """Run worker.py; return its set-up and its parsed result line.

    The set-up is the seconds from spawn to READY with the speed probes (of
    the workload's kind) taken just before the spawn and just after READY.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    before = speed_probe(probe)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        setup_s = None
        last = None
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if code != 0 or setup_s is None or last is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
    res = json.loads(last)
    return (setup_s, [before, res["setup_probe"]]), res


# ---------------------------------------------------------------------------
# metrics

def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile).

    With 10 samples or fewer no such percentile exists; the maximum is given
    as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def at_reference_speed(phase: dict) -> tuple[list[float], list[float]]:
    """A phase's op latencies and slots as if the host ran at the reference speed.

    Each op is divided by its slowdown (worker.slowdowns).
    """
    slowdown = slowdowns(phase["probes"], phase["probe"])
    return ([x / f for x, f in zip(phase["latencies"], slowdown)],
            [x / f for x, f in zip(phase["slots"], slowdown)])


def end_to_end(setups: list[tuple[float, list[float]]], res: dict,
               reference: bool = True) -> dict:
    """The end-to-end metrics, at the reference host speed unless reference is False.

    setups holds, per fresh process, its set-up time and the speed probes
    taken just before and just after it.
    """
    phase = res["phases"][0]
    if reference:
        lat, slots = at_reference_speed(phase)
        ref = PROBE_REF_S[phase["probe"]]
        setup = [s / (statistics.mean(p) / ref) for s, p in setups]
    else:
        lat, slots = phase["latencies"], phase["slots"]
        setup = [s for s, _ in setups]
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail(lat)[0],
        "throughput_ops_per_s": len(lat) / sum(slots),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
    }


def per_layer(res: dict) -> dict:
    untraced, traced = res["phases"]
    n_ops = len(traced["latencies"])
    layers = traced["layers"]
    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        agg = layers.get(base, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        if field in ("calls", "self_s", "total_s"):
            out[name] = agg[field] / n_ops
    for name in ("liealgebra.ce_differential", "forms.raise_coeffs"):
        distinct, calls = traced["distinct"].get(name, (0, 0))
        out[f"{name}.distinct_frac"] = distinct / calls if calls else 0.0
    imports = traced["import_times"] or [res["import_s"]]
    out["cli.import_s"] = statistics.median(imports)
    p50_off = statistics.median(at_reference_speed(untraced)[0])
    p50_on = statistics.median(at_reference_speed(traced)[0])
    out["trace.untraced_p50_s"] = p50_off
    out["trace.traced_p50_s"] = p50_on
    out["trace.overhead_s"] = p50_on - p50_off
    out["trace.overhead_frac"] = (p50_on - p50_off) / p50_off
    return {name: out[name] for name, _ in PER_LAYER}


def tally(res: dict) -> dict:
    failures = [f for phase in res["phases"] for f in phase["failures"]]
    problems = [p for p in (res["warmup_failure"], res["close_failure"]) if p]
    return {
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "reasons": sorted({f for f in failures if f}) + problems,
        "applicable": sum(p["applicable"] for p in res["phases"]),
        "check_failed": sum(p["check_failed"] for p in res["phases"]),
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no spin7 sources under {SRC.relative_to(ROOT)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    context = run_context(args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = workloads.WORKLOADS[args.workload].probe
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(start_worker(common + ["--setup-only"], probe, deadline)[0])
        flags = ["--trace", "--context", json.dumps(context)] if args.trace else []
        setup, res = start_worker(common + ["--seconds", str(args.seconds)] + flags, probe,
                                  deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    context["numpy"] = res["numpy"]
    counts = tally(res)

    print("context: " + json.dumps(context, sort_keys=True))
    lat = [x for phase in res["phases"] for x in phase["latencies"]]
    print(f"workload {args.workload}, seed {args.seed}: {counts['attempted']} ops"
          + (", half of them traced" if args.trace else ""))
    if args.trace:
        metrics = per_layer(res)
        units = dict(PER_LAYER)
        print(f"spans written to {res['trace_file']}")
    else:
        metrics = end_to_end(setups, res)
        units = dict(END_TO_END)
        median_probe = statistics.median(res["phases"][0]["probes"])
        print(f"host: {probe} speed probe median {median_probe * 1e3:.3f} ms (reference "
              f"{PROBE_REF_S[probe] * 1e3:g} ms); as measured, before scaling: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in end_to_end(setups, res, reference=False).items()))
        _, pct = tail(res["phases"][0]["latencies"])
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "latency_tail_s": f"p{pct:.1f} of n={len(lat)}, 10 samples beyond"
                              if len(lat) > 10 else f"max of n={len(lat)} (too few for a tail)",
        }
    for name, value in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:<48} {value:.6g} {units[name]}" + (f"   ({note})" if note else ""))
    print(f"  {'failed_frac':<48} {counts['failed'] / counts['attempted']:.6g} 1"
          f"   ({counts['failed']} of {counts['attempted']} ops)")
    if res["verify"]:
        frac = counts["check_failed"] / counts["applicable"] if counts["applicable"] else 0.0
        print(f"  {'check_fail_frac':<48} {frac:.6g} 1   ({counts['check_failed']} of "
              f"{counts['applicable']} applicable entries)")
    else:
        print(f"  {'check_fail_frac':<48} n/a   (no verification reports)")
    for reason in counts["reasons"][:10]:
        print(f"  failure: {reason}")

    print(json.dumps({
        "correct": counts["failed"] == 0 and not counts["problems"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
