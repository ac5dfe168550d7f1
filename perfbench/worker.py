"""One fresh benchmark process: set up a workload, then run it in a closed loop.

Started by run.py; not meant to be run by hand.  Prints READY on stdout when
set-up (import, inputs, one warm-up op) is done and takes one speed probe.
With --setup-only it then prints that probe; otherwise it runs whole passes
of ops for --seconds and prints one JSON result line.
With --trace it runs the first half of the time untraced and the second
half under the span tracer, and writes the spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each speed probe's time at the reference host speed.  Benchmark times are
# given as if the host ran at that speed; see README.md.
PROBE_REF_S = {"compute": 0.010, "start": 0.050}


def speed_probe(kind: str) -> float:
    """Seconds the probe of this kind takes now: compute_probe or start_probe."""
    return start_probe() if kind == "start" else compute_probe()


def start_probe() -> float:
    """Seconds to start and end a bare interpreter (`python -c pass`).

    The probe of the cli workload, whose ops are fresh processes: their speed
    follows this probe and hardly follows compute_probe (README.md).
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def compute_probe() -> float:
    """Seconds for a fixed piece of work that runs no spin7 code.

    The kinds of work spin7 does, about a third each: dict and tuple work,
    permutations with numpy element access, small numpy linear algebra.  It
    takes about 10 ms and shows how fast the host runs at that moment; why
    the benchmark needs it is in README.md.
    """
    import itertools

    import numpy as np

    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(5000):
        key = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        acc[key] = acc.get(key, 0.0) + i * 0.5
    arr = np.arange(8.0 ** 5).reshape(8, 8, 8, 8, 8)
    total = 0.0
    for idx in itertools.permutations(range(8), 5):
        total += arr[idx] * (1 if idx[0] < idx[1] else -1)
        arr[idx] = total
    m = np.eye(4) + 0.01
    for _ in range(230):
        np.linalg.det(m)
        np.tensordot(m, m, axes=([0], [0]))
    return time.perf_counter() - t0


def slowdowns(probes: list[float], kind: str) -> list[float]:
    """Per op, how much slower than the reference the host ran around it.

    The mean of the speed probes just before and just after the op, over
    PROBE_REF_S[kind]; probes holds one more probe than there are ops.
    """
    return [(a + b) / 2.0 / PROBE_REF_S[kind] for a, b in zip(probes, probes[1:])]


def run_loop(workload, items, start: int, seconds: float, seen: dict,
             traced: bool = False, tracer=None) -> dict:
    """Whole passes of ops until `seconds` have elapsed; one latency per op.

    A speed probe runs before every op and after the last one, outside the
    timed ops.  An op's slot is its latency plus the checks on its output.
    """
    from workloads import Outcome, op_failure

    latencies, slots, failures, probes = [], [], [], []
    applicable = check_failed = 0
    i = start
    t_start = time.perf_counter()
    while True:
        for _ in range(workload.pass_len):
            item = items[i % len(items)]
            probes.append(speed_probe(workload.probe))
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                out = workload.run(item, traced)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = Outcome(f"input{i % len(items)}", error=f"raised {exc!r}")
            lat = time.perf_counter() - t0
            latencies.append(lat)
            failures.append(op_failure(out, seen, lat))
            applicable += out.applicable
            check_failed += out.check_failed
            slots.append(time.perf_counter() - t0)
            i += 1
        if time.perf_counter() - t_start >= seconds:
            break
    probes.append(speed_probe(workload.probe))
    return {
        "probe": workload.probe,
        "latencies": latencies,
        "slots": slots,
        "probes": probes,
        "failures": failures,
        "applicable": applicable,
        "check_failed": check_failed,
        "next": i,
    }


def traced_phase(workload, items, start, seconds, seen, out_path: Path, header: dict) -> dict:
    from tracer import SpanLog, Tracer

    log = SpanLog()
    if workload.name == "cli":
        res = run_loop(workload, items, start, seconds, seen, traced=True)
        for op, exported in enumerate(workload.child_traces):
            log.merge(exported, op_offset=op)
        import_times = workload.import_times
    else:
        tracer = Tracer()
        tracer.install()
        try:
            res = run_loop(workload, items, start, seconds, seen, traced=True, tracer=tracer)
        finally:
            tracer.uninstall()
        log.merge(tracer.export())
        import_times = []
    out_path.parent.mkdir(parents=True, exist_ok=True)
    log.write(out_path, header)
    agg = log.aggregate(slowdowns(res["probes"], res["probe"]))
    res["layers"] = agg
    res["distinct"] = {name: [n, log.calls_of(agg, name)] for name, n in log.distinct.items()}
    res["import_times"] = import_times
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--context", default="{}", help="JSON stamped on the span file")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads

    workloads._import_spin7()
    import_s = time.perf_counter() - t0
    import numpy
    import spin7

    src = (ROOT / "src").resolve()
    if src not in Path(spin7.__file__).resolve().parents:
        print(f"spin7 imported from {spin7.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    items = workload.inputs
    seen: dict = {}
    try:
        warm = workload.run(workload.warm_input)
        warmup_failure = workloads.op_failure(warm, seen, 0.0)
    except Exception as exc:
        warmup_failure = f"raised {exc!r}"
    print("READY", flush=True)
    setup_probe = speed_probe(workload.probe)
    if args.setup_only:
        print(json.dumps({"setup_probe": setup_probe}), flush=True)
        return 0

    result = {"import_s": import_s, "numpy": numpy.__version__, "verify": workload.verify,
              "warmup_failure": warmup_failure, "setup_probe": setup_probe}
    if args.trace:
        half = args.seconds / 2.0
        untraced = run_loop(workload, items, 0, half, seen)
        out_path = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        header = {"workload": args.workload, "context": json.loads(args.context)}
        traced = traced_phase(workload, items, untraced["next"], half, seen, out_path, header)
        result["phases"] = [untraced, traced]
        result["trace_file"] = str(out_path.relative_to(ROOT))
    else:
        result["phases"] = [run_loop(workload, items, 0, args.seconds, seen)]
    result["close_failure"] = workload.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
