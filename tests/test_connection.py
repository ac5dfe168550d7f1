"""Lie-frame geometry: differential, connections, curvature, torsion formulas."""

import numpy as np
import pytest

from spin7.checks import check_dt_expansion
from spin7.connection import (
    FrameConnection,
    codifferential,
    codifferential_via_star,
    connection_from_torsion,
    covariant_derivative,
    curvature,
    lee_form,
    lee_form_routes,
    levi_civita,
    phi_derivatives,
    ricci,
    scalar_curv,
    sigma_t,
    spin7_torsion,
    spin7_torsion_routes,
    torsion_tensor,
)
from spin7.corpus import corpus_algebra
from spin7.forms import (
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    canonical_indices,
    interior_product,
    raise_slots,
    residual,
    wedge,
)
from spin7.liealgebra import LieAlgebra8, ce_differential, load_algebra, parse_scalar
from spin7.geometry import Geometry
from spin7.structure import canonical_phi, canonical_phi_form


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


def test_load_rejects_jacobi_violation():
    # [e1,e2] = e3 with [e1,e3] = e1 leaves a cyclic-sum defect -e3
    spec = {"name": "bad", "dim": 8, "convention": "brackets",
            "constants": [{"i": 1, "j": 2, "k": 3, "c": 1},
                          {"i": 1, "j": 3, "k": 1, "c": 1}]}
    with pytest.raises(ValueError, match="Jacobi"):
        load_algebra(spec)


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
    for a in (alg, alg.mirrored()):
        for degree in range(1, 8):
            beta = KForm(degree, {idx: rng.standard_normal()
                                  for idx in canonical_indices(degree)})
            assert residual(ce_differential(beta, a), reference_differential(beta, a)) < 1e-14


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

def test_levi_civita_abelian_is_flat():
    conn = levi_civita(LieAlgebra8.abelian(), IDENTITY_METRIC)
    assert not np.any(conn.gamma)


def test_levi_civita_biinvariant_is_half_bracket(su2, su3):
    for alg in (su2, su3):
        # ad-invariance first: lowered constants are totally antisymmetric
        cl = alg.lowered(np.eye(8))
        assert np.max(np.abs(cl + np.einsum("ijk->ikj", cl))) == 0.0
        conn = levi_civita(alg, IDENTITY_METRIC)
        assert np.max(np.abs(conn.gamma - 0.5 * alg.c)) < 1e-15
        assert conn.metric_compat_residual() < 1e-15


def test_levi_civita_general_metric_torsion_free(heisenberg, rng):
    a = rng.standard_normal((8, 8))
    m = FrameMetric(a @ a.T + 8.0 * np.eye(8))
    conn = levi_civita(heisenberg, m)
    assert conn.metric_compat_residual() < 1e-12
    tf = conn.gamma - np.einsum("ijk->jik", conn.gamma) - heisenberg.c
    assert np.max(np.abs(tf)) < 1e-12


def test_connection_from_torsion_recovers_input(su2, rng):
    lc = levi_civita(su2, IDENTITY_METRIC)
    # on an orthonormal frame T_ij^k = T_ijk
    t3 = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)}).to_array()
    conn = connection_from_torsion(lc, t3)
    assert np.max(np.abs(torsion_tensor(conn, su2) - t3)) < 1e-12
    assert conn.metric_compat_residual() < 1e-12
    zero = np.zeros((8, 8, 8))
    assert connection_from_torsion(lc, zero).gamma is not lc.gamma
    assert np.array_equal(connection_from_torsion(lc, zero).gamma, lc.gamma)


def test_cartan_connection_is_flat(su2):
    # prescribing minus the bracket form cancels the Levi-Civita half
    lc = levi_civita(su2, IDENTITY_METRIC)
    conn = connection_from_torsion(lc, -su2.lowered(np.eye(8)))
    assert not np.any(conn.gamma)
    assert np.max(np.abs(curvature(conn, su2).R)) == 0.0


def test_covariant_derivative_flat_and_metric(su2):
    lc = levi_civita(su2, IDENTITY_METRIC)
    s = canonical_phi()
    flat = FrameConnection(np.zeros((8, 8, 8)), IDENTITY_METRIC)
    assert not np.any(covariant_derivative(flat, s.dense))
    assert np.max(np.abs(covariant_derivative(lc, np.eye(8)))) < 1e-15
    assert np.array_equal(covariant_derivative(lc, np.array(3.0)), np.zeros(8))


def test_curvature_biinvariant_quarter_double_bracket(su2):
    lc = levi_civita(su2, IDENTITY_METRIC)
    R = curvature(lc, su2)
    c = su2.c
    expect = -0.25 * np.einsum("ijm,mkl->ijkl", c, su2.lowered(np.eye(8)))
    assert np.max(np.abs(R.R - expect)) < 1e-14
    assert R.antisymmetry_residual() < 1e-14


def test_ricci_of_product_metric(su2):
    lc = levi_civita(su2, IDENTITY_METRIC)
    ric = ricci(curvature(lc, su2), IDENTITY_METRIC)
    expect = 0.5 * np.diag([0, 1, 1, 1, 1, 1, 1, 0])
    assert np.max(np.abs(ric - expect)) < 1e-14
    assert scalar_curv(ric, IDENTITY_METRIC) == pytest.approx(3.0)


def test_flat_connection_has_zero_ricci():
    alg = LieAlgebra8.abelian()
    conn = levi_civita(alg, IDENTITY_METRIC)
    ric = ricci(curvature(conn, alg), IDENTITY_METRIC)
    assert not np.any(ric)
    assert scalar_curv(ric, IDENTITY_METRIC) == 0.0


# ---------------------------------------------------------------------------
# codifferential

@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_codifferential_paths_agree(degree, su2, su3, heisenberg, rng):
    for alg in (su2, su3, heisenberg):
        lc = levi_civita(alg, IDENTITY_METRIC)
        beta = KForm(degree, {idx: rng.standard_normal()
                              for idx in canonical_indices(degree)})
        assert residual(codifferential(beta, alg, lc),
                        codifferential_via_star(beta, alg, lc.metric)) < 1e-12


def test_codifferential_abelian_vanishes(rng):
    alg = LieAlgebra8.abelian()
    lc = levi_civita(alg, IDENTITY_METRIC)
    beta = KForm(2, {idx: rng.standard_normal() for idx in canonical_indices(2)})
    assert codifferential(beta, alg, lc).coeffs == {}


def test_codifferential_squares_to_zero(su2, rng):
    lc = levi_civita(su2, IDENTITY_METRIC)
    beta = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    assert codifferential(codifferential(beta, su2, lc), su2, lc).max_abs() < 1e-12


def test_torsion_of_product_example_is_coclosed(su2):
    lc = levi_civita(su2, IDENTITY_METRIC)
    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert codifferential(t, su2, lc).max_abs() == 0.0
    assert ce_differential(t, su2).max_abs() == 0.0


def test_codifferential_rejects_scalars(su2):
    lc = levi_civita(su2, IDENTITY_METRIC)
    with pytest.raises(ValueError):
        codifferential(KForm.scalar(1.0), su2, lc)
    with pytest.raises(ValueError):
        codifferential_via_star(KForm.scalar(1.0), su2)


# ---------------------------------------------------------------------------
# quartic torsion form

def sigma_orthonormal(t: KForm) -> KForm:
    # on an orthonormal frame T_xy^a = T_xya
    return sigma_t(t.to_array(), t.to_array())


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


def test_sigma_orthonormalization_matches_rescaled_frame(rng):
    # diagonal metric: sigma computed through Cholesky equals the direct
    # computation in the rescaled orthonormal coframe mapped back
    d = np.exp(rng.standard_normal(8))
    m = FrameMetric(np.diag(d))
    t = KForm(3, {idx: rng.standard_normal() for idx in canonical_indices(3)})
    got = sigma_t(t.to_array(), raise_slots(t.to_array(), m, (2,)))
    scale = np.sqrt(d)
    t_on = np.einsum("ijk,i,j,k->ijk", t.to_array(),
                     1 / scale, 1 / scale, 1 / scale)
    flat = sigma_orthonormal(KForm.from_array(t_on)).to_array()
    expect = np.einsum("abcd,a,b,c,d->abcd", flat, scale, scale, scale, scale)
    assert np.max(np.abs(got.to_array() - expect)) < 1e-10


# ---------------------------------------------------------------------------
# Lee form and characteristic torsion

def test_lee_form_product_example(su2):
    s = canonical_phi()
    theta = lee_form_routes(s, *phi_derivatives(s, su2)[1:])
    for route in theta:
        assert residual(route, (6.0 / 7.0) * (KForm.basis_covector(4)
                                              - KForm.basis_covector(3))) < 1e-13


def test_lee_form_abelian_vanishes():
    s = canonical_phi()
    for route in lee_form_routes(s, *phi_derivatives(s, LieAlgebra8.abelian())[1:]):
        assert route.max_abs() == 0.0


def test_torsion_product_example(su2):
    s = canonical_phi()
    t_star, t_delta = spin7_torsion_routes(s, *phi_derivatives(s, su2)[1:], lee_form(s, su2))
    expect = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert residual(t_star, expect) < 1e-13
    assert residual(t_delta, expect) < 1e-13


def test_torsion_su3_is_minus_bracket_form(su3):
    s = canonical_phi()
    t = spin7_torsion(s, su3)
    expect = KForm.from_array(-su3.lowered(np.eye(8)))
    assert residual(t, expect) < 1e-13
    assert ce_differential(t, su3).max_abs() < 1e-13


def test_torsion_abelian_vanishes():
    s = canonical_phi()
    assert spin7_torsion(s, LieAlgebra8.abelian()).coeffs == {}


def test_characteristic_connection_annihilates_phi(su2, su3, heisenberg):
    s = canonical_phi()
    for alg in (su2, su3, heisenberg):
        t = spin7_torsion(s, alg)
        conn = connection_from_torsion(levi_civita(alg, s.metric),
                                       raise_slots(t.to_array(), s.metric, (2,)))
        assert np.max(np.abs(covariant_derivative(conn, s.dense))) < 1e-13


@pytest.mark.parametrize("alg_name", ["su2su2u1u1", "heisenberg", "abelian"])
def test_dt_expansion_report(alg_name):
    geom = Geometry.build(corpus_algebra(alg_name), canonical_phi_form())
    rep = check_dt_expansion(geom)
    assert [e.check_id for e in rep.entries] == ["dT_five_term_expansion",
                                                 "lc_vs_torsion_derivative"]
    assert rep.all_passed()
    assert rep.max_residual() < 1e-9
