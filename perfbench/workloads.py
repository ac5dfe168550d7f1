"""The benchmark's workloads: seeded inputs, one op each, and the checks on its output.

Every workload is a closed loop with one client in one process (the engine
is single-threaded).  An op returns an ``Outcome``; ``op_failure`` decides
whether it failed.  Why each workload exists is in README.md next to this
file.

spin7 is reached only through module attributes (``spin7.forms.wedge``, not
``from spin7.forms import wedge``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# An op slower than this counts as timed out (and failed).
OP_TIMEOUT_S = 60.0

# Tolerances of the Tier-1 oracle tests (tests/test_dense_oracle.py).
STAR_TOL = 1e-12
STAR_METRIC_TOL = 1e-10
WEDGE_TOL = 1e-12
CONTRACTION_TOL = 1e-10
CONTRACTION_METRIC_TOL = 1e-9

ORACLE_STAR_DEGREES = (1, 2, 3, 4)
ORACLE_WEDGE_DEGREES = ((1, 1), (1, 2), (2, 2), (1, 3), (0, 4))
ORACLE_CONTRACTION_DEGREES = (1, 2, 3)
ORACLE_SPARSITY = 0.6

GENERIC_ALGEBRAS = ("su3", "su2su2u1u1")
GENERIC_PER_ALGEBRA = 8
ORACLE_POOL = 16


@dataclass
class Outcome:
    """What one op produced.

    key identifies the input; output is the bytes that must repeat for that
    input.  applicable/check_failed count report entries (verify workloads);
    error is set when the op raised, timed out, exited non-zero or disagreed
    with the oracle.
    """

    key: str
    output: bytes = b""
    applicable: int = 0
    check_failed: int = 0
    error: str = ""


def op_failure(outcome: Outcome, seen: dict, latency_s: float) -> str:
    """Why the op failed, or "" when it did not.  Records first outputs in seen."""
    if outcome.error:
        return outcome.error
    if latency_s > OP_TIMEOUT_S:
        return f"timed out after {latency_s:.1f} s"
    if outcome.check_failed:
        return f"{outcome.check_failed} of {outcome.applicable} applicable checks failed"
    first = seen.setdefault(outcome.key, outcome.output)
    if first != outcome.output:
        return "report differs from an earlier report of the same input"
    return ""


def report_outcome(key: str, text: str) -> Outcome:
    """Score a verification report by reading its JSON, never trusting a summary."""
    doc = json.loads(text)
    applicable = [e for e in doc["entries"] if not e["not_applicable"]]
    bad = [e for e in applicable
           if e["passed"] is not True or not e["residual"] <= e["tolerance"]]
    return Outcome(key, text.encode(), len(applicable), len(bad))


def _import_spin7():
    import spin7
    import spin7.checks
    import spin7.cli
    import spin7.corpus
    import spin7.dense
    import spin7.forms
    import spin7.geometry
    import spin7.structure

    return spin7


def target_key(target) -> str:
    alg, structure, t = target
    return f"{alg}+{structure}" + ("" if t is None else f"({t!r})")


def seeded_order(items, seed: int) -> list:
    """The items in an order drawn from the seed."""
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in perm]


class Workload:
    """Inputs are made in __init__ (part of set-up); ops cycle over them.

    warm_input feeds the warm-up op.  Its cost does not depend on the seed,
    so set-up time does not either.
    """

    name = ""
    verify = True          # ops produce verification reports
    pass_len = 1           # ops run in whole passes of this many inputs
    probe = "compute"      # the kind of worker.speed_probe its times are scaled by
    inputs: list
    warm_input: object

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.spin7 = _import_spin7()

    def run(self, item, traced: bool = False) -> Outcome:
        raise NotImplementedError

    def close(self) -> str:
        """A failure found only after the run (the cli workload's cross-check), or ""."""
        return ""


class CorpusWorkload(Workload):
    """build_geometry + full_report + to_json over the 7 corpus targets."""

    name = "corpus"
    pass_len = 7

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.inputs = seeded_order(list(self.spin7.corpus.VERIFY_TARGETS), seed)
        self.warm_input = self.spin7.corpus.VERIFY_TARGETS[0]


    def run(self, item, traced=False):
        s7 = self.spin7
        geom = s7.corpus.build_geometry(*item)
        text = s7.checks.full_report(geom).to_json()
        return report_outcome(target_key(item), text)


def pullback(phi_dense: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(A*phi)_ijkl = phi_abcd A_ai A_bj A_ck A_dl."""
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", phi_dense, a, a, a, a, optimize=True)


def draw_frame(rng) -> np.ndarray:
    """A = I + 0.3 N with N standard normal, redrawn until det A > 0."""
    while True:
        a = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
        if np.linalg.det(a) > 0.0:
            return a


class GenericMetricWorkload(Workload):
    """Geometry.build(alg, A*phi0) + full_report with a fresh A per op."""

    name = "generic_metric"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        s7 = self.spin7
        rng = np.random.default_rng([seed, 2])
        phi0 = s7.structure.canonical_phi_form().to_array()
        self.algebras = {name: s7.corpus.get_algebra(name) for name in GENERIC_ALGEBRAS}
        self.inputs = []
        for i in range(GENERIC_PER_ALGEBRA):
            for name in GENERIC_ALGEBRAS:
                phi = s7.forms.KForm.from_array(pullback(phi0, draw_frame(rng)))
                self.inputs.append((f"{name}#{i}", name, phi))
        phi = s7.forms.KForm.from_array(pullback(phi0, draw_frame(rng)))
        self.warm_input = ("warm-up", GENERIC_ALGEBRAS[0], phi)


    def run(self, item, traced=False):
        key, name, phi = item
        s7 = self.spin7
        geom = s7.geometry.Geometry.build(self.algebras[name], phi, name=key)
        return report_outcome(key, s7.checks.full_report(geom).to_json())


def random_form(spin7, rng, degree: int):
    """A seeded random form with round(0.6 * C(8, k)) nonzero canonical coefficients.

    The Tier-1 tests flip a coin per coefficient instead.  A fixed count keeps
    the dense oracle's cost, which grows with the number of nonzeros, the
    same from seed to seed.
    """
    idxs = spin7.forms.canonical_indices(degree)
    picked = rng.choice(len(idxs), size=round(ORACLE_SPARSITY * len(idxs)), replace=False)
    return spin7.forms.KForm(degree, {idxs[i]: rng.standard_normal() for i in sorted(picked)})


def spd_metric(rng) -> np.ndarray:
    q = rng.standard_normal((8, 8))
    return q @ q.T + 8.0 * np.eye(8)


class OracleWorkload(Workload):
    """One seeded sparse-vs-dense cross-examination case per op."""

    name = "oracle"
    verify = False

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.inputs = [self._case(i) for i in range(ORACLE_POOL)]
        self.warm_input = self._case(ORACLE_POOL)

    def _case(self, index: int) -> dict:
        s7 = self.spin7
        rng = np.random.default_rng([self.seed, 3, index])
        return {
            "key": f"case{index}",
            "star": [random_form(s7, rng, k) for k in ORACLE_STAR_DEGREES],
            "star_metric": [(random_form(s7, rng, k), spd_metric(rng))
                            for k in ORACLE_STAR_DEGREES],
            "wedge": [(random_form(s7, rng, p), random_form(s7, rng, q))
                      for p, q in ORACLE_WEDGE_DEGREES],
            "contraction": [(random_form(s7, rng, k), random_form(s7, rng, k), spd_metric(rng))
                            for k in ORACLE_CONTRACTION_DEGREES],
        }


    def run(self, item, traced=False):
        forms, dense = self.spin7.forms, self.spin7.dense
        digest = hashlib.sha256()
        bad = []

        def compare(label, sparse, oracle, tol):
            sparse = np.asarray(sparse, dtype=float)
            oracle = np.asarray(oracle, dtype=float)
            digest.update(sparse.tobytes())
            digest.update(oracle.tobytes())
            err = float(np.max(np.abs(sparse - oracle))) if sparse.size else 0.0
            if not err < tol:
                bad.append(f"{label}: {err:.3e} >= {tol:.0e}")

        def compare_star(label, sparse_form, dense_arr, tol):
            idxs = forms.canonical_indices(dense_arr.ndim)
            compare(label, [sparse_form.coeffs.get(i, 0.0) for i in idxs],
                    [dense_arr[i] for i in idxs], tol)

        for f in item["star"]:
            compare_star(f"star d{f.degree}", forms.hodge_star(f),
                         dense.dense_star(dense.dense_components(f)), STAR_TOL)
        for f, g in item["star_metric"]:
            compare_star(f"star d{f.degree} spd", forms.hodge_star(f, forms.FrameMetric(g)),
                         dense.dense_star(dense.dense_components(f), g), STAR_METRIC_TOL)
        for a, b in item["wedge"]:
            compare(f"wedge d{a.degree},{b.degree}",
                    dense.dense_components(forms.wedge(a, b)),
                    dense.dense_wedge(dense.dense_components(a), dense.dense_components(b)),
                    WEDGE_TOL)
        for a, b, g in item["contraction"]:
            da, db = dense.dense_components(a), dense.dense_components(b)
            compare(f"contraction d{a.degree}", forms.full_contraction(a, b),
                    dense.dense_full_contraction(da, db), CONTRACTION_TOL)
            compare(f"contraction d{a.degree} spd",
                    forms.full_contraction(a, b, forms.FrameMetric(g)),
                    dense.dense_full_contraction(da, db, g), CONTRACTION_METRIC_TOL)
        return Outcome(item["key"], digest.digest(), error="; ".join(bad))


class CliWorkload(Workload):
    """One cold `python -m spin7.cli verify --format json` per corpus target."""

    name = "cli"
    pass_len = 7
    probe = "start"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.inputs = seeded_order(list(self.spin7.corpus.VERIFY_TARGETS), seed)
        self.warm_input = self.spin7.corpus.VERIFY_TARGETS[0]
        self.reports: dict[str, bytes] = {}
        self.child_traces: list = []
        self.import_times: list = []

    @staticmethod
    def argv(target) -> list[str]:
        alg, structure, t = target
        args = ["verify", "--algebra", alg, "--structure", structure, "--format", "json"]
        if t is not None:
            args += ["--t", repr(t)]
        return args

    def run(self, item, traced=False):
        key = target_key(item)
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        else:
            cmd = [sys.executable, "-m", "spin7.cli"]
        try:
            # the children inherit PYTHONPATH, which run.py points at src/
            proc = subprocess.run(cmd + self.argv(item), cwd=self.root,
                                  capture_output=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(key, error=f"timed out after {OP_TIMEOUT_S:.0f} s")
        if traced:
            self._collect_trace(proc.stderr)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return Outcome(key, error=f"exit code {proc.returncode} {tail}")
        try:
            out = report_outcome(key, proc.stdout.decode())
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(key, error=f"unreadable report: {exc}")
        self.reports.setdefault(key, out.output)
        return out

    def _collect_trace(self, stderr: bytes) -> None:
        from cli_child import TRACE_MARK

        for line in stderr.decode(errors="replace").splitlines():
            if line.startswith(TRACE_MARK):
                doc = json.loads(line[len(TRACE_MARK):])
                self.import_times.append(doc["import_s"])
                self.child_traces.append(doc["trace"])

    def close(self) -> str:
        """Compare each CLI report with the in-process API report of its target."""
        s7 = self.spin7
        for item in self.inputs:
            key = target_key(item)
            if key not in self.reports:
                continue
            text = s7.checks.full_report(s7.corpus.build_geometry(*item)).to_json()
            # print() in the CLI appends the newline
            if self.reports[key] != (text + "\n").encode():
                return f"CLI report of {key} differs from the in-process report"
        return ""


WORKLOADS = {w.name: w for w in (CorpusWorkload, GenericMetricWorkload, CliWorkload,
                                 OracleWorkload)}
