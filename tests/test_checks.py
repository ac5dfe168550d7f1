"""Behavior of the identity suite across the corpus geometries."""

import importlib
import json
import pkgutil
import re
import sys
from collections import Counter

import numpy as np
import pytest

import spin7
from spin7 import checks, structure
from spin7.checks import (
    check_bi_spin7,
    check_bianchi_family,
    check_closed_torsion,
    check_main_theorems,
    check_riemannian_bianchi,
    check_s2lambda2,
    check_soliton,
    check_symmetric_ricci,
    classify_fernandez,
    full_report,
)
from spin7.corpus import (
    VERIFY_TARGETS,
    build_geometry,
    corpus_algebra,
    geometry_id,
    remark_b_form,
)
from spin7.forms import KForm
from spin7.geometry import Geometry, SolitonData
from spin7.structure import canonical_phi_form

FLAT_CARTAN = [
    ("abelian", "canonical", None),
    ("su2su2u1u1", "canonical", None),
    ("su2su2u1u1", "remark_b", None),
    ("su3", "canonical", None),
]


@pytest.fixture(scope="module")
def geometries():
    return {geometry_id(a, s, t): build_geometry(a, s, t) for a, s, t in VERIFY_TARGETS}


@pytest.fixture(scope="module")
def heisenberg_geom():
    return build_geometry("heisenberg", "canonical")


def test_all_corpus_targets_pass_everything(geometries):
    for name, geom in geometries.items():
        rep = full_report(geom)
        assert rep.all_passed(), (name, [e.check_id for e in rep.failed()])
        assert len(rep.entries) >= 25


def test_reports_are_deterministic(geometries):
    geom = geometries["su2su2u1u1+canonical"]
    a = full_report(geom).to_json()
    b = full_report(build_geometry("su2su2u1u1", "canonical")).to_json()
    assert a == b


def test_bianchi_family_residuals(geometries, heisenberg_geom):
    for geom in list(geometries.values()) + [heisenberg_geom]:
        for e in check_bianchi_family(geom).entries:
            assert e.passed and e.residual < 1e-9, (geom.name, e.check_id)


def test_abelian_residuals_are_exactly_zero(geometries):
    rep = full_report(geometries["abelian+canonical"])
    assert rep.max_residual() == 0.0


def test_heisenberg_unconditional_pass_conditional_fail(heisenberg_geom):
    rep = full_report(heisenberg_geom)
    failing = {e.check_id for e in rep.failed()}
    # the pair-symmetry and first-Bianchi probes legitimately fail there
    assert "riemannian_first_bianchi" in failing
    assert failing <= {
        "riemannian_first_bianchi", "parallel_type_torsion_relations",
        "nabla_T_is_four_form", "curvature_pair_symmetry", "dT_vs_lc_derivative",
    }
    # but the verdict-agreement entries hold: the three conditions fail together
    agreement = {e.check_id: e for e in rep.entries}["pair_symmetry_equivalence"]
    assert agreement.passed


def test_heisenberg_conditional_checks_are_not_applicable(heisenberg_geom):
    rb = check_riemannian_bianchi(heisenberg_geom).entries
    cond = {e.check_id: e for e in rb}["ricci_flat_under_first_bianchi"]
    assert cond.not_applicable
    assert all(e.not_applicable for e in check_main_theorems(heisenberg_geom).entries)


def test_heisenberg_torsion_is_not_closed(heisenberg_geom):
    assert heisenberg_geom.dtorsion.max_abs() > 1e-6
    assert all(e.not_applicable for e in check_closed_torsion(heisenberg_geom).entries)
    assert all(e.not_applicable for e in check_soliton(heisenberg_geom).entries)


@pytest.mark.parametrize("target", FLAT_CARTAN, ids=lambda t: f"{t[0]}+{t[1]}")
def test_closed_torsion_chain_on_flat_entries(target, geometries):
    geom = geometries[geometry_id(*target)]
    entries = {e.check_id: e for e in check_closed_torsion(geom).entries}
    for cid in ("ricci_flat", "lee_parallel", "scalar_flat", "lee_coclosed",
                "torsion_coclosed", "ricci_from_lee_derivative",
                "lee_exterior_in_21part"):
        assert entries[cid].passed and entries[cid].residual < 1e-9, cid
    assert entries["closed_chain_agreement"].passed


@pytest.mark.parametrize("target", FLAT_CARTAN, ids=lambda t: f"{t[0]}+{t[1]}")
def test_soliton_constant_potential_on_flat_entries(target, geometries):
    geom = geometries[geometry_id(*target)]
    for e in check_soliton(geom, SolitonData.constant_potential()).entries:
        assert e.passed and e.residual < 1e-9, e.check_id


def test_soliton_rejects_bad_gradient():
    with pytest.raises(ValueError):
        SolitonData([1.0, 2.0])
    with pytest.raises(ValueError):
        SolitonData([np.nan] * 8)


def test_symmetric_ricci_gates_on_coclosed_torsion(geometries, heisenberg_geom):
    entries = {e.check_id: e for e in check_symmetric_ricci(
        geometries["su2su2u1u1+canonical"]).entries}
    assert entries["codifferential_of_torsion_formula"].passed
    assert entries["lee_nabla_exterior_formula"].passed
    assert entries["symmetric_ricci_equivalence"].passed
    heis = {e.check_id: e for e in check_symmetric_ricci(heisenberg_geom).entries}
    assert heis["codifferential_of_torsion_formula"].passed  # unconditional


def test_fernandez_classification(geometries):
    assert classify_fernandez(geometries["abelian+canonical"]) == [
        "W_0", "W_1", "locally_conformally_balanced", "strong"]
    assert classify_fernandez(geometries["su2su2u1u1+canonical"]) == ["strong"]
    assert classify_fernandez(geometries["su2su2u1u1+remark_b"]) == [
        "locally_conformally_balanced", "strong"]


def test_bi_structure_mirror(geometries, heisenberg_geom):
    for name in ("su2su2u1u1+canonical", "su3+canonical", "abelian+canonical"):
        entries = check_bi_spin7(geometries[name]).entries
        assert all(e.passed for e in entries), name
    heis = {e.check_id: e for e in check_bi_spin7(heisenberg_geom).entries}
    assert heis["bi_structure_opposite_torsion"].passed
    assert heis["bi_structure_mirror_closed"].not_applicable


def test_mirror_torsion_value(geometries):
    geom = geometries["su2su2u1u1+canonical"]
    from spin7.connection import spin7_torsion

    t_mirror = spin7_torsion(geom.structure, geom.algebra.mirrored())
    expect = -1.0 * (KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6)))
    assert (t_mirror - expect).max_abs() < 1e-12


def test_corrupted_form_fails_loudly_but_completely():
    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0  # single sign flip
    geom = Geometry.build(corpus_algebra("su2su2u1u1"), KForm(4, coeffs),
                          name="corrupted")
    rep = full_report(geom)
    assert not rep.all_passed()
    assert max(e.residual for e in rep.failed()) > 1e-6
    assert len(rep.entries) >= 25  # the report still completes
    by_id = {e.check_id: e for e in rep.entries}
    # unconditional skew-torsion identities are form-independent and survive
    for cid in ("first_bianchi_with_torsion", "curvature_six_term_symmetry",
                "reversed_first_bianchi", "ricci_difference_riemannian",
                "dT_five_term_expansion", "second_bianchi_contracted"):
        assert by_id[cid].passed, cid


def test_report_round_trip(geometries):
    from spin7.report import VerificationReport

    rep = full_report(geometries["su3+canonical"])
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert [e.check_id for e in back.entries] == [e.check_id for e in rep.entries]


def test_report_json_text_nested_too_deeply_is_a_value_error():
    # json.loads ended in a raw RecursionError on text nested 100,000 deep
    from spin7.report import VerificationReport

    with pytest.raises(ValueError, match="JSON text: JSON nested too deeply to read"):
        VerificationReport.from_json("[" * 100000 + "]" * 100000)


ENTRY = {"check_id": "c", "paper_anchor": "id:a", "residual": 0.0, "tolerance": 1e-9,
         "passed": True}


@pytest.mark.parametrize("report,message", [
    ([], "a report must be an object, got list"),
    ({"schema_version": "1"}, "a report needs field 'geometry_id'"),
    ({"schema_version": "1", "geometry_id": "g"}, "a report needs field 'entries'"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [5]},
     "each entry of 'entries' must be an object, got int"),
    ({"schema_version": "1", "geometry_id": "g",
      "entries": [{k: v for k, v in ENTRY.items() if k != "paper_anchor"}]},
     "each entry of 'entries' needs field 'paper_anchor'"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "residual": "x"}]},
     "field 'residual' must be a number, got 'x'"),
], ids=["list", "no_geometry_id", "no_entries", "entry_not_an_object", "no_paper_anchor",
        "residual_not_a_number"])
def test_report_json_of_the_wrong_shape_is_a_value_error(report, message):
    # each ended in a raw AttributeError, KeyError or TypeError
    from spin7.report import VerificationReport

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VerificationReport.from_json(json.dumps(report))


def test_to_json_is_json_dumps_byte_for_byte(geometries):
    from spin7.report import CheckEntry, VerificationReport, entry, na_entry

    reports = [full_report(geom) for geom in geometries.values()]
    edge = VerificationReport("edge \u00e9 \" \\ \n")
    edge.add(entry("tiny", "id:a", 5e-324, 1e-9, notes="caf\u00e9 \"quoted\" back\\slash\nnext"))
    edge.add(entry("no_bound", "id:a", 3.0, float("inf")))
    edge.add(na_entry("skipped", "id:b", "hypothesis fails here"))
    edge.add(CheckEntry.from_dict({"check_id": "int_residual", "paper_anchor": "id:c",
                                   "residual": 0, "tolerance": 1, "passed": True}))
    edge.add(CheckEntry("nested", "id:d", [1.5, {"k": [2, None]}], 0.0, None, True))
    reports += [VerificationReport("empty"), edge,
                VerificationReport.from_json(reports[0].to_json())]
    for rep in reports:
        assert rep.to_json() == json.dumps(rep.to_dict(), indent=2), rep.geometry_id


def test_s2lambda2_verdicts_agree_everywhere(geometries, heisenberg_geom):
    for geom in list(geometries.values()) + [heisenberg_geom]:
        entries = {e.check_id: e for e in check_s2lambda2(geom).entries}
        assert entries["pair_symmetry_equivalence"].passed, geom.name


COUNTED = {
    "lee_form_routes": lambda *args: "lee_form_routes",
    "spin7_torsion_routes": lambda *args: "spin7_torsion_routes",
    "spin7_torsion": lambda *args: "spin7_torsion",
    "metric_from_phi": lambda *args: "metric_from_phi",
    "ce_differential": lambda beta, alg: ("ce_differential", beta.degree),
    "norm_sq": lambda a, *m: ("norm_sq", a.degree),
    "sigma_t": lambda t3: "sigma_t",
    "hodge_star": lambda a, *m: ("hodge_star", a.degree),
    "covariant_derivative": lambda conn, t: ("covariant_derivative", t.ndim),
}


def slot_raisers() -> list[str]:
    """The spin7 modules that define raise_slots: tables are raised through FrameMetric alone."""
    mods = [importlib.import_module(f"spin7.{info.name}")
            for info in pkgutil.iter_modules(spin7.__path__)]
    return [m.__name__ for m in [spin7, *mods] if hasattr(m, "raise_slots")]


def count_calls(monkeypatch) -> Counter:
    """Count calls of the COUNTED functions, keyed as there, in every spin7 namespace."""
    calls = Counter()
    wrappers = {}
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "spin7"]:
        for name, key in COUNTED.items():
            fn = getattr(mod, name, None)
            if fn is None:
                continue
            if fn not in wrappers:
                def counted(*args, _fn=fn, _key=key, **kwargs):
                    calls[_key(*args, **kwargs)] += 1
                    return _fn(*args, **kwargs)
                wrappers[fn] = counted
            monkeypatch.setattr(mod, name, wrappers[fn])
    return calls


def test_derived_quantities_are_computed_once(monkeypatch):
    # one build plus one report; the mirror algebra's torsion in
    # check_bi_spin7 is one spin7_torsion call, which takes the first of the
    # route tuple and makes two of the four d's of 4-forms.  Each
    # torsion stars three 5-forms: d phi, d*phi and theta ^ phi.  The two
    # 3-tensor derivatives are nabla T for both connections (delta T reads
    # the Levi-Civita one).  No 4-tensor derivative is built: nabla phi is
    # one matmul against phi's derivation matrix, and the divergence delta
    # phi traces before it sums.  The geometry is built in an orthonormal
    # frame, so no slot of any table is raised (nothing in spin7 raises slots
    # of a dense table: see the last assertion).  The cyclic sum and the pair
    # asymmetry of R are each one permutation of R, whatever the number of
    # groups reading them.  A fresh KForm gets a Spin7Form of its own, so
    # every count holds per build (a shipped structure is shared: see the
    # test below).
    alg = corpus_algebra("su2su2u1u1")
    Geometry.build(alg, remark_b_form())
    calls = count_calls(monkeypatch)
    built = Geometry.build(alg, remark_b_form())
    einsum = np.einsum

    def counted_einsum(subscripts, *operands, **kwargs):
        if any(op is built.curv.R for op in operands):
            calls[("einsum of R", subscripts)] += 1
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted_einsum)
    full_report(built)
    assert calls["lee_form_routes"] == 1
    assert calls["spin7_torsion_routes"] == 2
    assert calls["spin7_torsion"] == 1
    assert calls["metric_from_phi"] == 1
    assert calls[("ce_differential", 1)] == 1
    assert calls[("ce_differential", 2)] == 0
    assert calls[("ce_differential", 3)] == 3
    assert calls[("ce_differential", 4)] == 4
    assert calls["sigma_t"] == 1
    assert calls[("covariant_derivative", 3)] == 2
    assert calls[("covariant_derivative", 4)] == 0
    assert calls[("hodge_star", 5)] == 6
    assert calls[("einsum of R", "yzxv->xyzv")] == 1
    assert calls[("einsum of R", "zxyv->xyzv")] == 1
    assert calls[("einsum of R", "zvxy->xyzv")] == 1
    assert calls[("norm_sq", 3)] == 2
    assert not slot_raisers()


@pytest.mark.parametrize("target", VERIFY_TARGETS, ids=lambda t: geometry_id(*t))
def test_a_shipped_structure_is_derived_once_per_process(target, monkeypatch):
    # the second build of a shipped target reuses the shared Spin7Form: its
    # metric is not derived again, and every check still runs
    first = build_geometry(*target)
    full_report(first)
    calls = count_calls(monkeypatch)
    second = build_geometry(*target)
    rep = full_report(second)
    assert second.structure is first.structure
    assert calls["metric_from_phi"] == 0
    assert not slot_raisers()
    assert calls["lee_form_routes"] == 1 and calls["spin7_torsion"] == 1
    assert rep.to_json() == full_report(first).to_json()


def test_every_report_runs_the_one_index_identity(monkeypatch):
    # no check result is cached: a shipped structure reported twice in one process
    # runs validate_phi's one-index identity once per report, both times
    calls = []
    one_index_rhs = structure.one_index_rhs

    def spy(p):
        calls.append(p)
        return one_index_rhs(p)

    monkeypatch.setattr(structure, "one_index_rhs", spy)
    for expected in (1, 2):
        full_report(build_geometry("su3", "canonical"))
        assert len(calls) == expected


def test_one_report_builds_a_bounded_number_of_forms(monkeypatch):
    # a deterministic guard on the per-result Python overhead: one full_report
    # of su3+canonical builds 81 KForm results, each by one from_vector call
    # (117 when a - b and -a still built an intermediate (-1.0) * b)
    full_report(build_geometry("su3", "canonical"))
    geom = build_geometry("su3", "canonical")
    calls = Counter()
    from_vector = KForm.from_vector.__func__

    def counted(cls, degree, vec):
        calls[degree] += 1
        return from_vector(cls, degree, vec)

    monkeypatch.setattr(KForm, "from_vector", classmethod(counted))
    full_report(geom)
    assert sum(calls.values()) <= 81, calls


@pytest.mark.parametrize("target", [("su3", "canonical", None), ("heisenberg", "phi_t", 0.3)],
                         ids=lambda t: geometry_id(*t))
def test_no_einsum_loops_over_more_than_five_indices(target, monkeypatch):
    # wide contractions run as matmuls over reshaped views: an einsum with
    # three operands or six index letters is an unoptimised loop over 8^6
    seen = []
    einsum = np.einsum

    def recorded(subscripts, *operands, **kwargs):
        seen.append((subscripts, len(operands)))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    full_report(build_geometry(*target))
    assert seen
    wide = [(s, n) for s, n in seen if n > 2 or len({ch for ch in s if ch.isalpha()}) > 5]
    assert not wide, wide


def test_checks_tuple_holds_every_public_group_once():
    groups = {fn for name, fn in vars(checks).items() if name.startswith("check_")}
    assert len(checks.CHECKS) == len(set(checks.CHECKS))
    assert set(checks.CHECKS) == groups


def test_full_report_calls_each_group_through_the_module(monkeypatch):
    # profilers and perfbench's tracer wrap the module attributes; the soliton
    # still reaches its group through the wrapper
    seen = []
    for group in checks.CHECKS:
        def wrapped(*args, _group=group, **kwargs):
            seen.append(_group.__name__)
            return _group(*args, **kwargs)
        monkeypatch.setattr(checks, group.__name__, wrapped)
    rep = full_report(build_geometry("abelian"), SolitonData(np.ones(8)))
    assert seen == [group.__name__ for group in checks.CHECKS]
    notes = {e.check_id: e.notes for e in rep.entries}
    assert notes["soliton_vector_parallel"] == "user-supplied gradient"
