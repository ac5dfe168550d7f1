"""Lie-frame geometry: differential, connections, curvature, torsion formulas."""

import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from operator_references import compound_matrix, mirror_algebra, reference_sigma
from spin7.checks import check_algebra, check_dt_expansion, full_report
from spin7.connection import (
    codifferential,
    codifferential_via_star,
    connection_from_torsion,
    covariant_derivative,
    curvature,
    levi_civita,
    ricci,
    scalar_curv,
    sigma_t,
    spin7_torsion,
    torsion_tensor,
)
from spin7.corpus import (
    ALGEBRA_NAMES,
    PHI_T_CORPUS_VALUES,
    VERIFY_TARGETS,
    build_geometry,
    build_structure_form,
    corpus_algebra,
    get_algebra,
    phi_t_form,
    remark_b_form,
)
from spin7.forms import (
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    canonical_indices,
    form_to_json,
    interior_product,
    pull_back,
    residual,
    wedge,
)
from spin7.liealgebra import LieAlgebra8, ce_differential, load_algebra, parse_scalar
from spin7.geometry import Geometry
from spin7.structure import (
    Spin7Form,
    canonical_phi,
    canonical_phi_form,
    one_index_rhs,
    orthonormal_frame,
    validate_phi,
)


@pytest.fixture(scope="module")
def su2():
    return corpus_algebra("su2su2u1u1")


@pytest.fixture(scope="module")
def su3():
    return corpus_algebra("su3")


@pytest.fixture(scope="module")
def heisenberg():
    return corpus_algebra("heisenberg")


# ---------------------------------------------------------------------------
# scalar parsing and loading

@pytest.mark.parametrize("text,value", [
    ("1/2", 0.5), ("-1", -1.0), ("sqrt(3)/2", np.sqrt(3) / 2),
    ("pi/4", np.pi / 4), ("3*pi/4", 3 * np.pi / 4), (2, 2.0),
])
def test_parse_scalar(text, value):
    assert parse_scalar(text) == pytest.approx(value, abs=1e-15)


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("__import__('os')")
    with pytest.raises(ValueError):
        parse_scalar("sqrt(-1)")


@pytest.mark.parametrize("text,reason", [
    ("2**10", "Pow is not allowed"),
    ("9**9**9**9", "Pow is not allowed"),
    ("(1).real", "Attribute is not allowed"),
    ("2 % 3", "Mod is not allowed"),
    ("sqrt(4, 5)", "Call is not allowed"),
    ("1/0", "division by zero"),
    ("1e308*10", "not a finite number"),
    ("-" * 100000 + "1", "cannot parse scalar"),  # beyond the parser's stack
])
def test_parse_scalar_rejects_without_evaluating(text, reason):
    # only numbers, unary +/-, + - * /, sqrt(...) and pi are evaluated; the
    # power tower would not finish if it were
    with pytest.raises(ValueError, match=reason):
        parse_scalar(text)


@pytest.mark.parametrize("value", [True, False])
def test_parse_scalar_refuses_a_bool(value):
    # float(True) is 1.0
    with pytest.raises(ValueError, match="a boolean is not a number"):
        parse_scalar(value)


@pytest.mark.parametrize("value,message", [
    (True, "a boolean is not a number"),
    (10 ** 400, "an integer beyond double range"),
])
def test_load_refuses_a_constant_that_is_not_a_double(value, message):
    spec = {"name": "h", "dim": 8, "convention": "brackets",
            "constants": [{"i": 2, "j": 3, "k": 1, "c": value}]}
    with pytest.raises(ValueError, match=message):
        load_algebra(json.loads(json.dumps(spec)))


def test_load_keeps_exact_text_constants():
    spec = {"name": "h", "dim": 8, "convention": "brackets",
            "constants": [{"i": 2, "j": 3, "k": 1, "c": "sqrt(3)/2"}]}
    assert load_algebra(spec).c[2, 3, 1] == np.sqrt(3) / 2


@pytest.mark.parametrize("spec,message", [
    ({"dim": 8, "constants": [5]}, "each entry of 'constants' must be an object, got int"),
    ({"dim": 8, "constants": {"i": 1}}, "field 'constants' must be a list, got dict"),
])
def test_load_refuses_constants_of_the_wrong_shape(spec, message):
    with pytest.raises(ValueError, match=message):
        load_algebra(spec)


def test_load_rejects_jacobi_violation():
    # [e1,e2] = e3 with [e1,e3] = e1 leaves a cyclic-sum defect -e3
    spec = {"name": "bad", "dim": 8, "convention": "brackets",
            "constants": [{"i": 1, "j": 2, "k": 3, "c": 1},
                          {"i": 1, "j": 3, "k": 1, "c": 1}]}
    with pytest.raises(ValueError, match="Jacobi"):
        load_algebra(spec)


@pytest.mark.parametrize("key,value", [
    ("i", 1.5), ("j", 3.0), ("k", "1"), ("i", True), ("dim", 8.0), ("dim", "8"), ("dim", True),
])
def test_load_refuses_an_index_that_is_not_a_json_integer(key, value):
    # int() would truncate 1.5 to 1 and read "1" and true as 1; the field is named instead
    spec = {"name": "h", "dim": 8, "convention": "brackets",
            "constants": [{"i": 2, "j": 3, "k": 1, "c": 1}]}
    (spec if key == "dim" else spec["constants"][0])[key] = value
    with pytest.raises(ValueError, match=f"field '{key}' must be an integer, got {value!r}"):
        load_algebra(json.loads(json.dumps(spec)))


def frame(seed: int) -> np.ndarray:
    """A = I + 0.3 N with N seeded standard normal, redrawn until det A > 0."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
        if np.linalg.det(a) > 0.0:
            return a


def test_jacobi_tolerance_is_relative_to_the_constants(su3):
    # the Jacobi sum is quadratic in c: a badly conditioned change of frame
    # (cond(A^T A) ~ 8e4) and a large rescaling both leave rounding above
    # an absolute 1e-12, and both are Lie algebras
    a = frame(3)
    moved = np.einsum("ai,bj,abm,km->ijk", a, a, su3.c, np.linalg.inv(a))
    assert LieAlgebra8("su3-moved", moved).jacobi_residual()[0] > 1e-12
    assert LieAlgebra8("su3-scaled", 1000.0 * su3.c).jacobi_residual()[0] > 1e-12


@pytest.mark.parametrize("value", [1e160, 1e300])
def test_jacobi_sum_that_overflows_is_rejected_quietly(value):
    # so(3) scaled past ~1.3e154: the Jacobi products overflow to inf - inf = nan,
    # which no comparison with the bound may let through
    c = np.zeros((8, 8, 8))
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        c[i, j, k], c[j, i, k] = value, -value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reason = re.escape(f"(max |c| = {value:.3g}) overflow double precision")
        with pytest.raises(ValueError, match=reason):
            LieAlgebra8("so3-huge", c)


def test_load_abelian_and_single_bracket():
    assert LieAlgebra8.abelian().is_abelian()
    h = load_algebra({"name": "h", "dim": 8, "convention": "brackets",
                      "constants": [{"i": 2, "j": 3, "k": 1, "c": 1}]})
    assert h.c[2, 3, 1] == 1.0 and h.c[3, 2, 1] == -1.0


def test_rotated_su3_loads_exactly_antisymmetric(su3):
    # an orthogonal change of basis in floating point is antisymmetric only
    # up to rounding; the stored constants are the antisymmetric part
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
    c = np.einsum("ai,bj,abm,mk->ijk", q, q, su3.c, q)
    assert np.max(np.abs(c + np.einsum("ijk->jik", c))) > 0.0
    rotated = LieAlgebra8("su3-rotated", c)
    assert np.array_equal(rotated.c, -np.einsum("ijk->jik", rotated.c))
    assert np.max(np.abs(rotated.c - c)) < 1e-15


def test_asymmetric_constants_are_rejected(su3):
    c = su3.c.copy()
    c[1, 2, 3] += 1e-3
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebra8("skewed", c)


def test_structure_equation_convention_sign(su2):
    # "de_1 = e_23" stores the bracket constant c^1_{23} = -1
    assert su2.c[2, 3, 1] == -1.0
    assert ce_differential(KForm.basis_covector(1), su2).coeffs == {(2, 3): 1.0}


# ---------------------------------------------------------------------------
# invariant differential

def test_differential_matches_structure_equations(su2, su3):
    assert ce_differential(KForm.basis_covector(3), su2).coeffs == {(1, 2): 1.0}
    d3 = ce_differential(KForm.basis_covector(3), su3)
    assert d3.coeffs[(1, 2)] == -1.0  # the displayed leading term
    d0 = ce_differential(KForm.basis_covector(0), su3)
    s32 = np.sqrt(3) / 2
    assert d0.coeffs == {(4, 5): pytest.approx(-s32), (6, 7): pytest.approx(-s32)}


def reference_differential(beta, alg):
    """d as an antiderivation, term by term: the definition, not the matrix.

    d(e^I) = sum_p (-1)^p de^{i_p} ^ e^{I without i_p}, with the structure
    equations de^m = -(1/2) c^m_{ab} e^a ^ e^b as 2-forms.
    """
    d1 = [KForm(2, {(a, b): -alg.c[a, b, m] for a, b in canonical_indices(2)})
          for m in range(8)]
    out = KForm.zero(beta.degree + 1)
    for idx, coeff in beta.coeffs.items():
        for p, i in enumerate(idx):
            rest = KForm(beta.degree - 1, {idx[:p] + idx[p + 1:]: coeff})
            out = out + (-1.0) ** p * wedge(d1[i], rest)
    return out


@pytest.mark.parametrize("name", ["abelian", "su2su2u1u1", "su3", "heisenberg"])
def test_differential_matches_reference(name, rng):
    alg = corpus_algebra(name)
    for a in (alg, mirror_algebra(alg)):
        for degree in range(1, 8):
            beta = KForm(degree, {idx: rng.standard_normal()
                                  for idx in canonical_indices(degree)})
            assert residual(ce_differential(beta, a), reference_differential(beta, a)) < 1e-14


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_shipped_algebra_and_its_mirror_are_built_once_per_process(name):
    alg = corpus_algebra(name)
    assert corpus_algebra(name) is alg and get_algebra(name) is alg
    mirror = mirror_algebra(alg)
    assert not alg.c.flags.writeable and not mirror.c.flags.writeable
    # d is linear in c: the mirror's own d matrices are the negated originals, exactly
    for k in range(1, 5):
        assert np.array_equal(mirror.d_matrix(k), -alg.d_matrix(k))
    # check_algebra reads the residual taken at load, which is jacobi_residual()'s
    entries = {e.check_id: e for e in check_algebra(build_geometry(name))}
    assert entries["jacobi_identity"].residual == alg.jacobi_residual()[0]
    assert alg.jacobi == alg.jacobi_residual()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_geometries_on_one_algebra_share_its_levi_civita_tables(name):
    # on an orthonormal invariant frame the Levi-Civita side depends on the constants
    # alone: the algebra builds it once, through connection, and shares it read-only
    alg = corpus_algebra(name)
    lc, curv_lc, ric_lc, scal_lc = alg.lc_tables
    for structure in ("canonical", "remark_b"):
        geom = build_geometry(name, structure)
        assert geom.algebra is alg
        assert geom.lc is lc and geom.curv_lc is curv_lc and geom.ric_lc is ric_lc
        assert geom.scal_lc == scal_lc
    assert not any(table.flags.writeable for table in (lc, curv_lc, ric_lc))
    assert np.array_equal(lc, levi_civita(alg))
    assert np.array_equal(curv_lc, curvature(levi_civita(alg), alg))
    assert np.array_equal(ric_lc, ricci(curv_lc)) and scal_lc == scalar_curv(ric_lc)


def test_a_geometry_in_another_frame_gets_its_own_levi_civita_tables():
    # 4 phi_0 does not induce the identity metric: the build maps the constants into
    # another frame, whose algebra builds its own tables
    alg = corpus_algebra("su3")
    geoms = [Geometry.build(alg, 4.0 * canonical_phi_form()) for _ in range(2)]
    for geom in geoms:
        assert geom.algebra is not alg
        assert geom.lc is geom.algebra.lc_tables[0] and geom.lc is not alg.lc_tables[0]
        assert geom.curv_lc is geom.algebra.lc_tables[1]
        assert not geom.lc.flags.writeable and not geom.curv_lc.flags.writeable
        assert np.array_equal(geom.lc, levi_civita(geom.algebra))
        assert not np.array_equal(geom.lc, alg.lc_tables[0])
    assert geoms[0].lc is not geoms[1].lc


def test_user_files_are_read_on_every_call(tmp_path):
    spec = {"name": "x", "dim": 8, "convention": "brackets",
            "constants": [{"i": 2, "j": 3, "k": 1, "c": 1.0}]}
    alg_path, phi_path = tmp_path / "alg.json", tmp_path / "phi.json"
    alg_path.write_text(json.dumps(spec))
    phi_path.write_text(form_to_json(canonical_phi_form()))
    first, first_phi = get_algebra(str(alg_path)), build_structure_form(str(phi_path))[0]
    spec["constants"][0]["c"] = 2.0
    alg_path.write_text(json.dumps(spec))
    phi_path.write_text(form_to_json(2.0 * canonical_phi_form()))
    second, second_phi = get_algebra(str(alg_path)), build_structure_form(str(phi_path))[0]
    assert first.c[2, 3, 1] == 1.0 and second.c[2, 3, 1] == 2.0
    assert second_phi == 2.0 * first_phi


@pytest.mark.parametrize("structure,t", [("canonical", None), ("remark_b", None)]
                         + [("phi_t", t) for t in PHI_T_CORPUS_VALUES])
def test_shipped_structure_forms_are_built_once_and_read_only(structure, t):
    form, warned = build_structure_form(structure, t)
    assert build_structure_form(structure, t)[0] is form and not warned
    fresh = {"canonical": canonical_phi_form, "remark_b": remark_b_form}.get(structure)
    assert form == (phi_t_form(t) if fresh is None else fresh())
    assert not form.vec.flags.writeable
    with pytest.raises(ValueError):
        form.vec[0] = 1.0


def test_phi_t_off_the_corpus_values_is_built_fresh():
    # exact text gives the corpus value itself, so the shared form
    assert build_structure_form("phi_t", "3*pi/4")[0] is build_structure_form(
        "phi_t", 3.0 * math.pi / 4.0)[0]
    form = build_structure_form("phi_t", 0.7)[0]
    assert build_structure_form("phi_t", 0.7)[0] is not form
    assert form == phi_t_form(0.7)


def test_canonical_structure_is_one_read_only_object_across_algebras():
    # the three canonical targets share one Spin7Form, whose tables no caller may write
    geoms = [build_geometry(name, "canonical") for name in ("abelian", "su2su2u1u1", "su3")]
    s = geoms[0].structure
    assert all(g.structure is s for g in geoms)
    assert s.phi is build_structure_form("canonical")[0]
    # every shipped form induces the exact identity: one metric and its tables for all
    assert all(build_geometry(*t).structure.metric is IDENTITY_METRIC for t in VERIFY_TARGETS)
    full_report(geoms[0])
    tables = [s.phi.dense, s.derivation_matrix, s.metric.g, s.metric.chol, s.metric.inv]
    tables += [s.lambda2_basis, *s.lambda4_bases]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = 1.0


def test_off_corpus_structures_get_a_fresh_spin7form_on_every_call(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(form_to_json(canonical_phi_form()))
    for structure, t in [("phi_t", 0.7), (str(path), None)]:
        first, second = (build_geometry("su2su2u1u1", structure, t) for _ in range(2))
        assert second.structure is not first.structure
        assert second.structure.phi is not first.structure.phi
        assert second.structure.phi == first.structure.phi


def test_differential_degree_bounds(su3):
    assert ce_differential(KForm.scalar(2.0), su3).coeffs == {}
    with pytest.raises(ValueError):
        ce_differential(KForm(8, {tuple(range(8)): 1.0}), su3)


def test_differential_squares_to_zero(su2, su3, heisenberg, rng):
    for alg in (su2, su3, heisenberg):
        for degree in range(1, 7):
            beta = KForm(degree, {idx: rng.standard_normal()
                                  for idx in canonical_indices(degree)})
            dd = ce_differential(ce_differential(beta, alg), alg)
            assert dd.max_abs() < 1e-13


def test_differential_on_abelian_is_zero(rng):
    alg = LieAlgebra8.abelian()
    beta = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    assert ce_differential(beta, alg).coeffs == {}


# ---------------------------------------------------------------------------
# Levi-Civita and torsion connections

def metric_compat_residual(gamma):
    """max |Gamma_ijk + Gamma_ikj|, which is 0 exactly on a metric connection."""
    return np.max(np.abs(gamma + np.einsum("ijk->ikj", gamma)))


def test_levi_civita_abelian_is_flat():
    assert not np.any(levi_civita(LieAlgebra8.abelian()))


def test_levi_civita_biinvariant_is_half_bracket(su2, su3):
    for alg in (su2, su3):
        # ad-invariance first: the constants are totally antisymmetric
        assert np.max(np.abs(alg.c + np.einsum("ijk->ikj", alg.c))) == 0.0
        conn = levi_civita(alg)
        assert np.max(np.abs(conn - 0.5 * alg.c)) < 1e-15
        assert metric_compat_residual(conn) < 1e-15


def test_levi_civita_general_metric_torsion_free(heisenberg, rng):
    # heisenberg under the metric a a^T + 8 I, in the frame that metric makes orthonormal
    a = rng.standard_normal((8, 8))
    alg = heisenberg.in_frame(np.linalg.inv(np.linalg.cholesky(a @ a.T + 8.0 * np.eye(8))).T)
    conn = levi_civita(alg)
    assert metric_compat_residual(conn) < 1e-12
    tf = conn - np.einsum("ijk->jik", conn) - alg.c
    assert np.max(np.abs(tf)) < 1e-12


def test_connection_from_torsion_recovers_input(su2, rng):
    lc = levi_civita(su2)
    t3 = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)}).to_array()
    conn = connection_from_torsion(lc, t3)
    assert np.max(np.abs(torsion_tensor(conn, su2) - t3)) < 1e-12
    assert metric_compat_residual(conn) < 1e-12
    zero = np.zeros((8, 8, 8))
    assert connection_from_torsion(lc, zero) is not lc
    assert np.array_equal(connection_from_torsion(lc, zero), lc)


def test_cartan_connection_is_flat(su2):
    # prescribing minus the bracket form cancels the Levi-Civita half
    lc = levi_civita(su2)
    conn = connection_from_torsion(lc, -su2.c)
    assert not np.any(conn)
    assert np.max(np.abs(curvature(conn, su2))) == 0.0


def test_covariant_derivative_flat_and_metric(su2):
    lc = levi_civita(su2)
    s = canonical_phi()
    flat = np.zeros((8, 8, 8))
    assert not np.any(covariant_derivative(flat, s.phi.dense))
    assert np.max(np.abs(covariant_derivative(lc, np.eye(8)))) < 1e-15
    assert np.array_equal(covariant_derivative(lc, np.array(3.0)), np.zeros(8))


def test_curvature_biinvariant_quarter_double_bracket(su2):
    lc = levi_civita(su2)
    R = curvature(lc, su2)
    c = su2.c
    expect = -0.25 * np.einsum("ijm,mkl->ijkl", c, su2.c)
    assert np.max(np.abs(R - expect)) < 1e-14
    assert np.max(np.abs(R + np.einsum("ijkl->jikl", R))) < 1e-14
    assert np.max(np.abs(R + np.einsum("ijkl->ijlk", R))) < 1e-14


def test_ricci_of_product_metric(su2):
    lc = levi_civita(su2)
    ric = ricci(curvature(lc, su2))
    expect = 0.5 * np.diag([0, 1, 1, 1, 1, 1, 1, 0])
    assert np.max(np.abs(ric - expect)) < 1e-14
    assert scalar_curv(ric) == pytest.approx(3.0)


def test_flat_connection_has_zero_ricci():
    alg = LieAlgebra8.abelian()
    conn = levi_civita(alg)
    ric = ricci(curvature(conn, alg))
    assert not np.any(ric)
    assert scalar_curv(ric) == 0.0


# ---------------------------------------------------------------------------
# codifferential

@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_codifferential_paths_agree(degree, su2, su3, heisenberg, rng):
    for alg in (su2, su3, heisenberg):
        lc = levi_civita(alg)
        beta = KForm(degree, {idx: rng.standard_normal()
                              for idx in canonical_indices(degree)})
        assert residual(codifferential(beta, lc),
                        codifferential_via_star(beta, alg)) < 1e-12


def test_codifferential_abelian_vanishes(rng):
    alg = LieAlgebra8.abelian()
    lc = levi_civita(alg)
    beta = KForm(2, {idx: rng.standard_normal() for idx in canonical_indices(2)})
    assert codifferential(beta, lc).coeffs == {}


def test_codifferential_squares_to_zero(su2, rng):
    lc = levi_civita(su2)
    beta = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    assert codifferential(codifferential(beta, lc), lc).max_abs() < 1e-12


def test_torsion_of_product_example_is_coclosed(su2):
    lc = levi_civita(su2)
    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert codifferential(t, lc).max_abs() == 0.0
    assert ce_differential(t, su2).max_abs() == 0.0


def test_codifferential_rejects_scalars(su2):
    lc = levi_civita(su2)
    with pytest.raises(ValueError):
        codifferential(KForm.scalar(1.0), lc)
    with pytest.raises(ValueError):
        codifferential_via_star(KForm.scalar(1.0), su2)


# ---------------------------------------------------------------------------
# quartic torsion form

def sigma_orthonormal(t: KForm) -> KForm:
    return sigma_t(t.to_array())


def test_sigma_of_decomposable_product_torsion():
    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert sigma_orthonormal(t).coeffs == {}
    assert sigma_orthonormal(KForm.zero(3)).coeffs == {}


def test_sigma_generic_is_nonzero(rng):
    t = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    assert sigma_orthonormal(t).max_abs() > 1e-3


def test_sigma_matches_interior_product_definition(rng):
    # on an orthonormal frame sigma_T = (1/2) sum_j (e_j . T) ^ (e_j . T)
    t = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    ref = KForm.zero(4)
    for j in range(8):
        tj = interior_product(KForm.basis_covector(j), t)
        ref = ref + wedge(tj, tj)
    assert residual(sigma_orthonormal(t), 0.5 * ref) < 1e-13


def test_sigma_gather_is_the_full_table_sum_bit_for_bit():
    # sigma_t gathers the three terms of each canonical component and adds them in
    # the full table sum's order, so each of its 70 components has that sum's bytes:
    # 20 seeded torsions at each scale 1e-5 .. 1e5, and the corpus torsions
    rng = np.random.default_rng(31)
    tables = [KForm.from_vector(3, 10.0 ** k * rng.standard_normal(56)).to_array()
              for k in range(-5, 6) for _ in range(20)]
    tables += [build_geometry(*target).torsion.dense for target in VERIFY_TARGETS]
    for t3 in tables:
        assert sigma_t(t3).vec.tobytes() == reference_sigma(t3).vec.tobytes()


# ---------------------------------------------------------------------------
# Lee form and characteristic torsion

def test_lee_form_product_example(su2):
    s = canonical_phi()
    theta = spin7_torsion(s, su2)[1]
    for route in theta:
        assert residual(route, (6.0 / 7.0) * (KForm.basis_covector(4)
                                              - KForm.basis_covector(3))) < 1e-13


def test_lee_form_abelian_vanishes():
    s = canonical_phi()
    for route in spin7_torsion(s, LieAlgebra8.abelian())[1]:
        assert route.max_abs() == 0.0


def test_torsion_product_example(su2):
    s = canonical_phi()
    t_star, t_delta = spin7_torsion(s, su2)[2]
    expect = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert residual(t_star, expect) < 1e-13
    assert residual(t_delta, expect) < 1e-13


def test_torsion_su3_is_minus_bracket_form(su3):
    s = canonical_phi()
    t = spin7_torsion(s, su3)[2][0]
    expect = KForm.from_array(-su3.c)
    assert residual(t, expect) < 1e-13
    assert ce_differential(t, su3).max_abs() < 1e-13


def test_torsion_abelian_vanishes():
    s = canonical_phi()
    assert all(t.coeffs == {} for t in spin7_torsion(s, LieAlgebra8.abelian())[2])


def test_characteristic_connection_annihilates_phi(su2, su3, heisenberg):
    s = canonical_phi()
    for alg in (su2, su3, heisenberg):
        t = spin7_torsion(s, alg)[2][0]
        conn = connection_from_torsion(levi_civita(alg), t.to_array())
        assert np.max(np.abs(covariant_derivative(conn, s.phi.dense))) < 1e-13


@pytest.mark.parametrize("alg_name", ["su2su2u1u1", "heisenberg", "abelian"])
def test_dt_expansion_report(alg_name):
    geom = Geometry.build(corpus_algebra(alg_name), canonical_phi_form())
    entries = check_dt_expansion(geom)
    assert [e.check_id for e in entries] == ["dT_five_term_expansion", "lc_vs_torsion_derivative"]
    assert all(e.passed and e.residual < 1e-9 for e in entries)


# ---------------------------------------------------------------------------
# matmul kernels against the einsum and tensordot expressions they replaced

def close(new, old, rel=1e-13):
    return np.max(np.abs(new - old)) <= rel * np.max(np.abs(old))


def kernel_inputs(seed):
    """A connection and antisymmetric constants, both random."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((8, 8, 8))
    return rng, rng.standard_normal((8, 8, 8)), c - c.transpose(1, 0, 2)


def test_curvature_matches_its_einsum_expression():
    _, g, c = kernel_inputs(21)
    r = (np.einsum("jkm,iml->ijkl", g, g) - np.einsum("ikm,jml->ijkl", g, g)
         - np.einsum("ijm,mkl->ijkl", c, g))
    # curvature reads only the constants of the algebra, which need no Jacobi identity here
    assert close(curvature(g, SimpleNamespace(c=c)), r)


def test_jacobi_residual_matches_its_einsum_expression():
    c = kernel_inputs(22)[2]
    jac = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    res, where = LieAlgebra8.jacobi_residual(SimpleNamespace(c=c))
    # the maximum is reached at several permutations, so only its value is pinned
    assert abs(res - np.max(np.abs(jac))) <= 1e-13 * res
    assert abs(abs(jac[where]) - res) <= 1e-13 * res


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_covariant_derivative_matches_its_tensordot_expression(rank):
    rng, conn, _ = kernel_inputs(30 + rank)
    t = rng.standard_normal((8,) * rank)
    old = np.zeros((8,) * (rank + 1))
    for s in range(rank):
        old -= np.moveaxis(np.tensordot(conn, t, axes=([2], [s])), 1, 1 + s)
    assert close(covariant_derivative(conn, t), old)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_pull_back_matches_its_tensordot_expression(rank):
    rng = np.random.default_rng(40 + rank)
    b = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
    form = KForm(rank, {idx: rng.standard_normal() for idx in canonical_indices(rank)})
    old = form.to_array()
    for s in range(rank):
        old = np.moveaxis(np.tensordot(old, b, axes=([s], [0])), -1, s)
    assert close(pull_back(form, b).to_array(), old)
    # along the exact identity the form comes back unchanged, bit for bit
    assert pull_back(form, np.eye(8)) == form


def moved_su3(su3) -> Geometry:
    """su3 and the canonical form pulled back along A, built in its metric's orthonormal frame."""
    a = frame(11)
    c = np.einsum("ai,bj,abm,km->ijk", a, a, su3.c, np.linalg.inv(a))
    phi = np.einsum("abcd,ai,bj,ck,dl->ijkl", canonical_phi_form().to_array(), a, a, a, a,
                    optimize=True)
    geom = Geometry.build(LieAlgebra8("su3-moved", c), KForm.from_array(phi))
    assert geom.structure.metric is IDENTITY_METRIC
    return geom


def test_torsion_square_matches_its_einsum_expression(su3):
    geom = moved_su3(su3)
    assert close(geom.t_square, np.einsum("xia,yia->xy", geom.torsion.dense, geom.torsion.dense))


def test_nabla_phi_is_one_matmul_against_the_derivation_matrix(su3):
    # nabla phi on the 70 canonical components, -Gamma.reshape(8, 64) @ D,
    # against the full 8^5 covariant derivative: on the pulled-back frame's
    # torsion connection and on random coefficients
    geom = moved_su3(su3)
    phi = geom.structure.phi.dense
    canonical = (slice(None),) + tuple(np.array(canonical_indices(4)).T)
    for conn in (geom.conn, kernel_inputs(50)[1]):
        full = covariant_derivative(conn, phi)
        new = -conn.reshape(8, 64) @ geom.structure.derivation_matrix
        assert new.shape == (8, 70)
        bound = 1e-13 * np.max(np.abs(conn)) * np.max(np.abs(phi))
        assert np.max(np.abs(new - full[canonical])) <= bound
        assert abs(np.max(np.abs(new)) - np.max(np.abs(full))) <= bound


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_codifferential_matches_the_trace_of_the_full_derivative(degree):
    # the trace-first divergence against tracing the whole (k+1)-tensor
    # nabla b, under random coefficients
    rng, conn, _ = kernel_inputs(60 + degree)
    beta = KForm(degree, {idx: rng.standard_normal() for idx in canonical_indices(degree)})
    old = -np.trace(covariant_derivative(conn, beta.to_array()))
    assert close(codifferential(beta, conn).to_array(), old)


def test_one_index_rhs_matches_its_rotation_loop(rng):
    # (g g g) - (g phi) at g = I on canonical triples, against the nine
    # broadcast gathers it replaced, for a random 4-form
    g = np.eye(8)
    p = KForm(4, {idx: rng.standard_normal() for idx in canonical_indices(4)}).to_array()
    triples = tuple(np.array(canonical_indices(3)).T)
    i, j, k = (n[:, None] for n in triples)
    a, b, c = (n[None, :] for n in triples)
    old = compound_matrix(g, 3)
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            old -= g[x, u] * p[y, z, v, w]
    assert close(one_index_rhs(p), old)


def roll_and_concatenate_rhs(g, p):
    """The earlier one_index_rhs, kept as the reference: the rotation indices rebuilt per call."""
    x, y, z = np.concatenate([np.roll(np.array(canonical_indices(3)), -r, axis=1)
                              for r in range(3)]).T
    yz = 8 * y + z
    g_phi = g[x][:, x]
    g_phi *= p.reshape(64, 64)[yz][:, yz]
    return compound_matrix(g, 3) - g_phi.reshape(3, 56, 3, 56).sum(axis=(0, 2))


def pulled_back_orthonormal_phi():
    """phi' of A*phi0, A = I + 0.3 N (seed 5, det A > 0), mapped by its metric A^T A to its
    orthonormal frame: an admissible form whose entries carry rounding, not only 0 and +-1."""
    a = np.eye(8) + 0.3 * np.random.default_rng(5).standard_normal((8, 8))
    assert np.linalg.det(a) > 0.0
    structure = Spin7Form(pull_back(canonical_phi_form(), a), FrameMetric(a.T @ a))
    return orthonormal_frame(structure)[0].phi.dense


def random_form_table(seed):
    rng = np.random.default_rng(seed)
    return KForm(4, {idx: rng.standard_normal() for idx in canonical_indices(4)}).to_array()


ONE_INDEX_INPUTS = {
    "identity": lambda: canonical_phi_form().to_array(),
    "random_form": lambda: random_form_table(72),
    "phi_t(pi/4)": lambda: phi_t_form(math.pi / 4.0).to_array(),
    "remark_b": lambda: remark_b_form().to_array(),
    "pulled_back": pulled_back_orthonormal_phi,
    # no 4-form: its cells I = J get three nonzero terms, so this case pins their summation order
    "random_table": lambda: np.random.default_rng(73).standard_normal((8,) * 4),
}


@pytest.mark.parametrize("form", ONE_INDEX_INPUTS)
def test_one_index_rhs_is_the_roll_and_concatenate_version_bit_for_bit(form):
    # at g = I, the only metric it is now called with; "identity" is the canonical form
    p = ONE_INDEX_INPUTS[form]()
    for _ in range(2):  # the cached indices are not changed by a call
        assert one_index_rhs(p).tobytes() == roll_and_concatenate_rhs(np.eye(8), p).tobytes()


def one_index_residual(p):
    """max |phi_ijks phi_abcs - rhs| over canonical triples, with the reference rhs."""
    p3 = p[tuple(np.array(canonical_indices(3)).T)]
    return float(np.max(np.abs(p3 @ p3.T - roll_and_concatenate_rhs(np.eye(8), p))))


@pytest.mark.parametrize("seed", range(5))
def test_one_index_residual_of_a_non_admissible_form_is_the_reference_bit_for_bit(seed):
    # a random 4-form is no Spin(7) form; under the identity metric validate_phi reads it
    # as it is, so its one-index residual is the reference's, to the last bit
    p = random_form_table(seed)
    rep = validate_phi(Spin7Form(KForm.from_array(p), IDENTITY_METRIC))
    got = next(e for e in rep.entries if e.check_id == "contraction_one_index")
    assert got.residual == one_index_residual(p)
    assert not got.passed


def test_single_sign_flip_fails_the_one_index_identity():
    # one flipped monomial of phi0, its metric given as the identity, so the verdict
    # does not rest on metric_from_phi: the one-index identity misses by 2
    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0
    rep = validate_phi(Spin7Form(KForm(4, coeffs), IDENTITY_METRIC))
    got = next(e for e in rep.entries if e.check_id == "contraction_one_index")
    assert not got.passed and got.residual >= 1.0
