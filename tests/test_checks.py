"""Behavior of the identity suite across the corpus geometries."""

import json
import re
import sys
from collections import Counter

import numpy as np
import pytest

from operator_references import mirror_algebra, mirror_torsion, shortcut_mismatches
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
from spin7.connection import spin7_torsion
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
    t_mirror = mirror_torsion(geom)[0]
    expect = -1.0 * (KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6)))
    assert (t_mirror - expect).max_abs() < 1e-12


def test_mirror_derivation_is_the_exact_negation(geometries, heisenberg_geom):
    # c -> -c is exact in floating point and every route is linear in c, so the
    # mirror's d phi, Lee routes, torsion routes and theta ^ phi, theta . phi are the
    # geometry's negated bit for bit: bi_structure_opposite_torsion reads 0.0, not a
    # rounding residual
    for geom in [*geometries.values(), heisenberg_geom]:
        dphi, lee_routes, torsion_routes, products = spin7_torsion(geom.structure,
                                                                   mirror_algebra(geom.algebra))
        ours = (geom.dphi, *geom.lee_routes, *geom.torsion_routes, geom.theta_wedge_phi,
                geom.theta_phi)
        for mirror, form in zip((dphi, *lee_routes, *torsion_routes, *products), ours,
                                strict=True):
            assert np.array_equal(mirror.vec, -form.vec), geom.name


def test_report_shortcuts_are_their_references_bit_for_bit(geometries, heisenberg_geom):
    # the bi_structure_* rows read -T and dT off the geometry, and parallel_metric the
    # metric-compatibility rows: each is its reference's value, gate open or not
    for geom in [*geometries.values(), heisenberg_geom]:
        assert shortcut_mismatches(geom) == [], geom.name


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
    # these loaded: the failing entry below as N/A, so all_passed() was True
    ({"schema_version": "1", "geometry_id": "g",
      "entries": [{**ENTRY, "residual": 5.0, "passed": False, "not_applicable": "false"}]},
     "field 'not_applicable' must be a boolean, got 'false'"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "passed": 1}]},
     "field 'passed' must be a boolean, got 1"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "not_applicable": True}]},
     "field 'passed' must be null on a not-applicable entry, got True"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "check_id": 7}]},
     "field 'check_id' must be a string, got 7"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "paper_anchor": 7}]},
     "field 'paper_anchor' must be a string, got 7"),
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "notes": 7}]},
     "field 'notes' must be a string, got 7"),
    ({"schema_version": "1", "geometry_id": 7, "entries": []},
     "field 'geometry_id' must be a string, got 7"),
    # math.isfinite raised OverflowError on this integer
    ({"schema_version": "1", "geometry_id": "g", "entries": [{**ENTRY, "residual": 10**400}]},
     "field 'residual' must be a number in double range"),
], ids=["list", "no_geometry_id", "no_entries", "entry_not_an_object", "no_paper_anchor",
        "residual_not_a_number", "not_applicable_not_a_bool", "passed_not_a_bool",
        "passed_not_null_on_na", "check_id_not_a_string", "paper_anchor_not_a_string",
        "notes_not_a_string", "geometry_id_not_a_string", "residual_beyond_double_range"])
def test_report_json_of_the_wrong_shape_is_a_value_error(report, message):
    # each ended in a raw AttributeError, KeyError or TypeError, or loaded as a wrong report
    from spin7.report import VerificationReport

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VerificationReport.from_json(json.dumps(report))


@pytest.mark.parametrize("passed,not_applicable", [
    (1, False), (None, 1), (np.bool_(True), False), (True, True), (None, False),
], ids=["passed_is_1", "not_applicable_is_1", "passed_is_a_numpy_bool", "passed_on_na",
        "no_verdict"])
def test_an_entry_refuses_a_verdict_that_is_not_a_bool(passed, not_applicable):
    # the first two were written as 1 and refused by from_json; to_json raised TypeError on
    # the numpy bool; N/A with a verdict was accepted
    from spin7.report import CheckEntry

    with pytest.raises(ValueError, match="^entry 'x': passed must be a bool, or None exactly when"):
        CheckEntry("x", "a", 0.5, 1.0, passed, not_applicable)


def test_to_json_is_json_dumps_byte_for_byte(geometries):
    from spin7.report import CheckEntry, VerificationReport, entry, na_entry

    reports = [full_report(geom) for geom in geometries.values()]
    edge = VerificationReport("edge \u00e9 \" \\ \n")
    edge.add(entry("tiny", "id:a", 5e-324, 1e-9, notes="caf\u00e9 \"quoted\" back\\slash\nnext"))
    edge.add(entry("no_bound", "id:a", 3.0, float("inf")))
    edge.add(na_entry("skipped", "id:b", "hypothesis fails here"))
    edge.add(CheckEntry.from_dict({"check_id": "int_residual", "paper_anchor": "id:c",
                                   "residual": 0, "tolerance": 1, "passed": True}))
    # a float subclass takes the one-per-line encoder too, which writes it as a float
    edge.add(CheckEntry("numpy_residual", "id:e", np.float64(0.1) + np.float64(0.2), 1.0, True))
    reports += [VerificationReport("empty"), edge,
                VerificationReport.from_json(reports[0].to_json())]
    for rep in reports:
        assert rep.to_json() == json.dumps(rep.to_dict(), indent=2), rep.geometry_id
    assert '"residual": 0.30000000000000004,' in edge.to_json()


@pytest.mark.parametrize("fields,message", [
    (("nested", "id:d", [1.5], 0.0, None, True), "field 'residual' must be a number, got [1.5]"),
    ((7, "id:a", 0.0, 1.0, True), "field 'check_id' must be a string, got 7"),
    (("c", None, 0.0, 1.0, True), "field 'paper_anchor' must be a string, got None"),
    (("c", "id:a", 0.0, "1e-9", True), "field 'tolerance' must be a number, got '1e-9'"),
    (("c", "id:a", True, 1.0, True), "field 'residual' must be a number, got True"),
    (("c", "id:a", 0.0, 1.0, True, False, b"x"), "field 'notes' must be a string, got b'x'"),
    (("c", "id:a", 10**400, 0.0, None, True),
     "field 'residual' must be a number in double range"),
], ids=["residual_a_list", "check_id_an_int", "paper_anchor_none", "tolerance_text",
        "residual_a_bool", "notes_bytes", "residual_beyond_double_range"])
def test_an_entry_refuses_a_field_from_json_would_refuse(fields, message):
    # each was written by to_json, and from_json then refused the text
    from spin7.report import CheckEntry

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CheckEntry(*fields)


def test_s2lambda2_verdicts_agree_everywhere(geometries, heisenberg_geom):
    for geom in list(geometries.values()) + [heisenberg_geom]:
        entries = {e.check_id: e for e in check_s2lambda2(geom).entries}
        assert entries["pair_symmetry_equivalence"].passed, geom.name


COUNTED = {
    "spin7_torsion": lambda *args: "spin7_torsion",
    "pull_back": lambda form, b: "pull_back",
    "metric_from_phi": lambda *args: "metric_from_phi",
    "ce_differential": lambda beta, alg: ("ce_differential", beta.degree),
    "norm_sq": lambda a, *m: ("norm_sq", a.degree),
    "sigma_t": lambda t3: "sigma_t",
    "hodge_star": lambda a, *m: ("hodge_star", a.degree),
    "covariant_derivative": lambda conn, t: ("covariant_derivative", t.ndim),
    "codifferential": lambda beta, lc: ("codifferential", beta.degree),
    # keyed by the operands themselves: count only while both are alive
    "wedge": lambda a, b: ("wedge", id(a), id(b)),
    "interior_product": lambda x, a, *m: ("interior_product", id(x), id(a)),
}


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


def permutations_counted(calls: Counter) -> type:
    """An ndarray view class that counts each permutation of the axes of the one table viewed.

    A permutation made by ``transpose`` (so also ``np.transpose`` and
    ``np.moveaxis``), ``swapaxes``, ``.T`` or a one-operand ``np.einsum`` counts
    once, keyed by ("permutation of R", axes): output axis n reads axis axes[n].
    Arrays computed from the table are views of the class too, and count nothing.
    """
    viewed = []

    class Counted(np.ndarray):
        def __array_finalize__(self, obj):
            if not viewed and type(obj) is np.ndarray:  # the view of the table itself
                viewed.append(self)

        def _count(self, axes):
            if self is viewed[0]:
                calls[("permutation of R", tuple(int(a) for a in axes))] += 1

        def transpose(self, *axes):
            if len(axes) == 1 and not isinstance(axes[0], int):
                axes = axes[0]
            self._count(axes or range(self.ndim - 1, -1, -1))
            return super().transpose(*axes)

        def swapaxes(self, a, b):
            axes = list(range(self.ndim))
            axes[a], axes[b] = axes[b], axes[a]
            self._count(axes)
            return super().swapaxes(a, b)

        @property
        def T(self):
            return self.transpose()

        def __array_function__(self, func, types, args, kwargs):
            if func is np.einsum and len(args) == 2 and "->" in args[0]:
                given, out = args[0].replace(" ", "").split("->")
                if sorted(given) == sorted(out) and len(set(given)) == len(given):
                    args[1]._count([given.index(ch) for ch in out])
            return super().__array_function__(func, types, args, kwargs)

    return Counted


def spy_readings(monkeypatch) -> Counter:
    """Count every take of each of ``checks.READINGS``, keyed by reading."""
    reads = Counter()
    for name, read in list(checks.READINGS.items()):
        def spy(g, _name=name, _read=read):
            reads[_name] += 1
            return _read(g)
        monkeypatch.setitem(checks.READINGS, name, spy)
    return reads


def test_derived_quantities_are_computed_once(monkeypatch):
    # one build plus one report: Geometry.build is the one spin7_torsion call
    # (check_bi_spin7 reads the mirror's -T and dT off the geometry), which
    # makes both d's of 4-forms and stars three 5-forms: d phi, d*phi and
    # theta ^ phi.  T's dense table is made once, by the build, and
    # parallel_metric builds no nabla g table.  The two 3-tensor
    # derivatives are nabla T for both connections (delta T reads the
    # Levi-Civita one).  No 4-tensor derivative is built: nabla phi is one
    # matmul against phi's derivation matrix, and the divergence delta phi
    # traces before it sums.  The geometry is built in an orthonormal frame,
    # so no form is pulled back to another frame.  The cyclic sum and the pair
    # asymmetry of R are each one permutation of R, whatever the number of
    # groups reading them.  theta ^ phi and theta . phi are made once, by the
    # build's torsion routes, and delta theta is one matvec, no codifferential.
    # Each of the six readings is taken once.  A fresh KForm gets a Spin7Form of
    # its own, so every count holds per build (a shipped structure is shared:
    # see the test below).
    alg = corpus_algebra("su2su2u1u1")
    Geometry.build(alg, remark_b_form())
    form = remark_b_form()
    calls = count_calls(monkeypatch)
    reads = spy_readings(monkeypatch)
    to_array, arrays = KForm.to_array, []

    def counted_to_array(form):
        arrays.append(form)
        return to_array(form)

    monkeypatch.setattr(KForm, "to_array", counted_to_array)
    built = Geometry.build(alg, form)
    curv = vars(built)["curv"] = built.curv.view(permutations_counted(calls))
    full_report(built)
    assert calls["spin7_torsion"] == 1
    assert sum(form is built.torsion for form in arrays) == 1
    assert calls["metric_from_phi"] == 1
    assert calls[("ce_differential", 1)] == 1
    assert calls[("ce_differential", 2)] == 0
    assert calls[("ce_differential", 3)] == 2
    assert calls[("ce_differential", 4)] == 2
    assert calls["sigma_t"] == 1
    assert calls[("covariant_derivative", 2)] == 2
    assert calls[("covariant_derivative", 3)] == 2
    assert calls[("covariant_derivative", 4)] == 0
    assert calls[("hodge_star", 5)] == 3
    # R_yzxv, R_zxyv and R_zvxy as the (x, y, z, v) table: the output's axes read R's
    # axes (2, 0, 1, 3), (1, 2, 0, 3) and (2, 3, 0, 1)
    assert calls[("permutation of R", (2, 0, 1, 3))] == 1
    assert calls[("permutation of R", (1, 2, 0, 3))] == 1
    assert calls[("permutation of R", (2, 3, 0, 1))] == 1
    assert calls[("permutation of R", (1, 0, 2, 3))] == 1  # curvature_antisymmetry's
    assert built.curv is curv
    assert calls[("norm_sq", 3)] == 2
    assert calls["pull_back"] == 0
    theta, phi = built.theta, built.structure.phi
    assert calls[("wedge", id(theta), id(phi))] == 1
    assert calls[("interior_product", id(theta), id(phi))] == 1
    assert calls[("codifferential", 1)] == 0
    assert calls[("codifferential", 4)] == 1
    assert reads == {name: 1 for name in checks.READINGS}


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
    assert calls["pull_back"] == 0
    assert calls["spin7_torsion"] == 1
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
    # of su3+canonical builds 44 KForm results, each by one from_vector call
    # (47 while the report rebuilt theta ^ phi and theta . phi and took delta
    # theta as a codifferential; 117 when a - b and -a still built an
    # intermediate (-1.0) * b)
    full_report(build_geometry("su3", "canonical"))
    geom = build_geometry("su3", "canonical")
    calls = Counter()
    from_vector = KForm.from_vector.__func__

    def counted(cls, degree, vec):
        calls[degree] += 1
        return from_vector(cls, degree, vec)

    monkeypatch.setattr(KForm, "from_vector", classmethod(counted))
    full_report(geom)
    assert sum(calls.values()) <= 44, calls


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


def generic_frame_su3() -> Geometry:
    """su3's constants under A*phi0 with its metric A^T A: no longer a closed-torsion geometry."""
    from test_frame_change import frame

    from spin7.forms import FrameMetric, pull_back
    from spin7.structure import Spin7Form

    a = frame(7)
    phi = Spin7Form(pull_back(canonical_phi_form(), a), FrameMetric(a.T @ a))
    return Geometry.build(corpus_algebra("su3"), phi, name="su3 at frame(7)")


CLOSED_TORSION_ROWS = ("ricci_from_lee_derivative", "lee_exterior_in_21part", "ricci_flat",
                       "lee_parallel", "scalar_flat", "lee_coclosed", "torsion_coclosed",
                       "closed_chain_agreement")
SYMMETRIC_RICCI_ROWS = ("lee_nabla_exterior_formula", "lee_nabla_exterior_in_7part",
                        "symmetric_ricci_equivalence")
PAIR_SYMMETRY_ROWS = ("ricci_quartic_balance", "lc_parallel_torsion", "parallel_torsion",
                      "lee_parallel_under_pair_symmetry", "quartic_lee_contractions")
SOLITON_ROWS = ("soliton_vector_parallel", "soliton_ricci_hessian", "soliton_torsion_gradient",
                "soliton_lee_transport", "soliton_metric_invariance",
                "soliton_structure_invariance")


def not_applicable(symmetric_ricci_closed: bool) -> list[tuple[str, str]]:
    """(check_id, notes) of every N/A entry, in report order, when first Bianchi, closed
    torsion and pair symmetry fail, and symmetric Ricci too if asked."""
    closed = "torsion is not closed here"
    return ([("ricci_flat_under_first_bianchi", "first Bianchi identity does not hold here")]
            + [(i, closed) for i in CLOSED_TORSION_ROWS]
            + [(i, "Ricci tensor is not symmetric here")
               for i in (SYMMETRIC_RICCI_ROWS if symmetric_ricci_closed else ())]
            + [(i, "pair-symmetry hypotheses fail here") for i in PAIR_SYMMETRY_ROWS]
            + [(i, closed) for i in SOLITON_ROWS]
            + [("bi_structure_mirror_closed", closed)])


@pytest.mark.parametrize("which", ["heisenberg", "generic_frame_su3"])
def test_each_gate_puts_out_of_scope_exactly_its_entries_with_its_note(which, heisenberg_geom):
    geom = heisenberg_geom if which == "heisenberg" else generic_frame_su3()
    rep = full_report(geom)
    got = [(e.check_id, e.notes) for e in rep.entries if e.not_applicable]
    assert got == not_applicable(symmetric_ricci_closed=which != "heisenberg")
    assert len(got) == (21 if which == "heisenberg" else 24)
    for e in rep.entries:
        if e.not_applicable:
            assert (e.residual, e.tolerance, e.passed) == (0.0, 0.0, None), e.check_id
    # the codifferential of the torsion is ungated even where its group's gate closes
    by_id = {e.check_id: e for e in rep.entries}
    assert by_id["codifferential_of_torsion_formula"].passed


@pytest.mark.parametrize("target", [*VERIFY_TARGETS, ("heisenberg", "canonical", None), None],
                         ids=lambda t: geometry_id(*t) if t else "su3 at frame(7)")
def test_every_report_lists_the_catalog_in_order(target):
    rep = full_report(build_geometry(*target) if target else generic_frame_su3())
    assert [(e.check_id, e.paper_anchor) for e in rep.entries] == [
        (check_id, anchor) for check_id, anchor, _ in checks.ENTRIES]
    assert len({check_id for check_id, _, _ in checks.ENTRIES}) == len(checks.ENTRIES)
    for (check_id, _, gate), e in zip(checks.ENTRIES, rep.entries):
        if e.not_applicable:
            assert e.notes == checks.GATES[gate][1], check_id


def test_every_gate_closes_on_some_target(heisenberg_geom):
    notes = {e.notes for geom in (heisenberg_geom, generic_frame_su3())
             for e in full_report(geom).entries if e.not_applicable}
    assert notes == {note for _, note in checks.GATES.values()}
    assert {gate for _, _, gate in checks.ENTRIES} == set(checks.GATES) | {None}


def _swapped(geom, tol=1e-9):
    yield "differential_squares_to_zero", 0.0
    yield "jacobi_identity", 0.0


def _short(geom, tol=1e-9):
    yield "jacobi_identity", 0.0


def _long(geom, tol=1e-9):
    yield "jacobi_identity", 0.0
    yield "differential_squares_to_zero", 0.0
    yield "jacobi_identity_again", 0.0


@pytest.mark.parametrize("group,message", [
    (_swapped, "_swapped yielded 'differential_squares_to_zero' for the row 'jacobi_identity'"),
    (_short, "_short yielded None for the row 'differential_squares_to_zero'"),
    (_long, "_long yielded 'jacobi_identity_again' past its last row"),
], ids=["swapped", "short", "long"])
def test_a_group_that_yields_other_ids_than_its_rows_raises(group, message, monkeypatch):
    # two swapped rows whose residuals are both rounding-sized would pass every golden
    monkeypatch.setattr(checks, "check_algebra", checks._report_of(*checks.check_algebra.rows)(group))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        full_report(build_geometry("abelian"))


def test_a_closed_gate_stops_its_group_before_any_work(heisenberg_geom, monkeypatch):
    # heisenberg's torsion is not closed: the soliton battery computes nothing
    check_soliton(heisenberg_geom)  # the gate's own residual, dT, is cached on the geometry
    calls = count_calls(monkeypatch)
    rep = check_soliton(heisenberg_geom, SolitonData(np.ones(8)))
    assert all(e.not_applicable for e in rep.entries)
    assert calls[("covariant_derivative", 1)] == calls[("covariant_derivative", 2)] == 0
    assert sum(calls.values()) == 0, calls


def test_a_report_takes_each_reading_once(geometries, monkeypatch):
    # the closed-torsion gate alone serves four groups and the "strong" class, and the
    # rows that report a gate's reading read it too; a report keeps its readings to
    # itself, so the next report takes every reading again
    geom = geometries["su2su2u1u1+canonical"]
    reads = spy_readings(monkeypatch)
    for expected in (1, 2):
        full_report(geom)
        assert reads == {name: expected for name in checks.READINGS}
    check_soliton(geom)  # a group called on its own reads its gate itself
    assert reads["dtorsion"] == 3
    assert "strong" in classify_fernandez(geom)
    assert reads["dtorsion"] == 4
    check_closed_torsion(geom)  # its gate and three of its rows, each once
    assert reads == {"bianchi_cycle": 2, "pair_asymmetry": 2, "ric": 3, "dtheta7": 3,
                     "dtorsion": 5, "delta_torsion": 3}


@pytest.mark.parametrize("where", ["alone", "second"])
def test_a_gate_whose_residual_is_nan_is_closed(where, geometries, monkeypatch):
    # an entry applies iff its gate's residual is <= tol, so nan closes every gate alike
    # (the closed-torsion groups once tested "> tol" and let nan through); a nan reading
    # after a finite one closes its gate too, which Python's max would miss
    geom = geometries["su2su2u1u1+canonical"]
    monkeypatch.setitem(checks.READINGS, "nan", lambda _: float("nan"))
    for gate, (names, note) in list(checks.GATES.items()):
        names = ("nan",) if where == "alone" else (names[0], "nan", *names[1:])
        monkeypatch.setitem(checks.GATES, gate, (names, note))
    rep = full_report(geom)
    gated = [e for (_, _, gate), e in zip(checks.ENTRIES, rep.entries) if gate is not None]
    assert len(gated) == 24 and all(e.not_applicable for e in gated)
    assert "strong" not in classify_fernandez(geom)
