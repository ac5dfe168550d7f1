"""Self-tests of the benchmark: its contract, its failure predicate and its tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanLog, Tracer  # noqa: E402
from workloads import Outcome, op_failure, report_outcome  # noqa: E402

import spin7  # noqa: E402
from spin7 import checks, corpus, forms, geometry, structure  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# contract

def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"{name} " in text and f" {unit}" in text
    assert "failed_frac" in text and "check_fail_frac" in text and "context: " in text
    if workload != "generic_metric":
        assert result["correct"] and result["failed"] == 0, text


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("kind", ["compute", "start"])
def test_times_are_scaled_by_the_probes_around_each_op(kind):
    ref = run.PROBE_REF_S[kind]
    phase = {"latencies": [1.0, 1.0], "slots": [1.5, 1.5], "probes": [ref, 3 * ref, ref],
             "probe": kind}
    lat, slots = run.at_reference_speed(phase)
    assert lat == pytest.approx([0.5, 0.5]) and slots == pytest.approx([0.75, 0.75])
    res = {"phases": [phase], "rss_kb": 2048}
    setups = [(4.0, [ref, ref]), (4.0, [2 * ref, 2 * ref]), (6.0, [3 * ref, ref])]
    metrics = run.end_to_end(setups, res)
    assert metrics["setup_s"] == pytest.approx(3.0)
    assert metrics["throughput_ops_per_s"] == pytest.approx(2 / 1.5)
    assert run.end_to_end(setups, res, reference=False)["latency_p50_s"] == 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 21))
    assert run.tail(xs) == (10, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# failure predicate

def _report_text():
    return checks.full_report(corpus.build_geometry("abelian")).to_json()


def test_good_report_passes_and_repeat_is_checked():
    seen: dict = {}
    good = report_outcome("abelian", _report_text())
    assert op_failure(good, seen, 0.1) == ""
    assert op_failure(good, seen, 0.1) == ""
    drifted = Outcome("abelian", good.output + b" ", good.applicable)
    assert "differs" in op_failure(drifted, seen, 0.1)


def test_flipped_verdict_fails():
    doc = json.loads(_report_text())
    doc["entries"][3]["passed"] = False
    out = report_outcome("abelian", json.dumps(doc, indent=2))
    assert out.check_failed == 1
    assert op_failure(out, {}, 0.1)


def test_flipped_monomial_of_phi0_fails():
    terms = list(structure.CANONICAL_PHI_TERMS)
    sign, idx = terms[5]
    terms[5] = (-sign, idx)
    phi = forms.KForm(4, {i: float(s) for s, i in terms})
    alg = corpus.get_algebra("su2su2u1u1")
    text = checks.full_report(geometry.Geometry.build(alg, phi, name="flipped")).to_json()
    assert op_failure(report_outcome("flipped", text), {}, 0.1)


def test_raised_or_slow_op_fails():
    assert op_failure(Outcome("x", error="raised ValueError()"), {}, 0.1)
    assert "timed out" in op_failure(Outcome("x"), {}, workloads.OP_TIMEOUT_S + 1.0)


def test_perturbed_dense_result_fails(monkeypatch):
    oracle = workloads.OracleWorkload(7, ROOT)
    case = oracle.inputs[0]
    assert oracle.run(case).error == ""
    real = spin7.dense.dense_wedge

    def perturbed(a, b):
        out = real(a, b)
        out.flat[np.flatnonzero(out)[0]] += 1e-9
        return out

    monkeypatch.setattr(spin7.dense, "dense_wedge", perturbed)
    out = oracle.run(case)
    assert "wedge" in out.error
    assert op_failure(out, {}, 0.1)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_sees_calls_bound_in_every_namespace_and_restores_them():
    original = spin7.forms.wedge
    tracer = Tracer()
    tracer.install()
    try:
        assert spin7.liealgebra.wedge is spin7.forms.wedge is not original
        tracer.op = 0
        alg = corpus.get_algebra("su3")
        spin7.liealgebra.ce_differential(structure.canonical_phi_form(), alg)
    finally:
        tracer.uninstall()
    assert spin7.forms.wedge is original and spin7.liealgebra.wedge is original
    log = SpanLog()
    log.merge(tracer.export())
    agg = log.aggregate()
    ce = agg["liealgebra.ce_differential.d4"]
    assert ce["calls"] == 1 and 0.0 < ce["self_s"] < ce["total_s"]
    halved = log.aggregate([2.0])["liealgebra.ce_differential.d4"]
    assert halved["self_s"] == pytest.approx(ce["self_s"] / 2)
    assert agg["forms.wedge.d5"]["calls"] > 0
    assert agg["forms.validate_multi_index"]["calls"] > 0
    assert log.distinct["liealgebra.ce_differential"] == 1
    log.merge(tracer.export())  # a second process computes its input again
    assert log.distinct["liealgebra.ce_differential"] == 2
