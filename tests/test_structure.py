"""The fundamental form, its identities and the irreducible projections."""

import math
import warnings

import numpy as np
import pytest

import spin7.structure
from operator_references import lambda2_operator, omega_operator
from spin7.connection import lee_form
from spin7.forms import (
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    _merge_table,
    canonical_indices,
    contract_into,
    full_contraction,
    hodge_star,
    interior_product,
    norm_sq,
    residual,
    wedge,
)
from spin7.structure import (
    EIGENVALUES,
    Spin7Form,
    canonical_phi,
    canonical_phi_form,
    d_operator,
    lambda3_covector,
    metric_from_phi,
    operator_matrix,
    orthonormal_frame,
    project_lambda2,
    project_lambda3,
    project_lambda4,
    projector_ranks,
    validate_phi,
)
from spin7.corpus import build_structure_form, corpus_algebra, phi_t_form, remark_b_form


def random_form(rng, degree):
    return KForm(degree, {idx: rng.standard_normal() for idx in canonical_indices(degree)})


# ---------------------------------------------------------------------------
# canonical form

def test_canonical_has_14_unit_monomials():
    phi = canonical_phi_form()
    assert len(phi.coeffs) == 14
    assert set(phi.coeffs.values()) == {1.0, -1.0}
    assert phi.coeffs[(2, 4, 6, 7)] == 1.0
    assert phi.coeffs[(0, 1, 2, 7)] == -1.0
    assert phi[(0, 1, 2, 3)] == 0.0


def test_canonical_metric_is_exact_identity():
    m = metric_from_phi(canonical_phi_form())
    assert np.array_equal(m.g, np.eye(8))


def test_metric_scaling_is_quadratic():
    m = metric_from_phi(2.0 * canonical_phi_form())
    assert np.array_equal(m.g, 4.0 * np.eye(8))


def test_form_overflowing_its_metric_is_refused_quietly():
    # 1e200 phi0: g = phi phi^T / 42 overflows to inf, which FrameMetric refuses,
    # with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not an admissible fundamental form: .*non-finite"):
            metric_from_phi(1e200 * canonical_phi_form())


def test_zero_form_is_rejected():
    with pytest.raises(ValueError):
        metric_from_phi(KForm.zero(4))


def test_validate_canonical_is_exact():
    rep = validate_phi(canonical_phi_form())
    assert rep.all_passed()
    assert rep.max_residual() == 0.0


def test_validate_detects_single_sign_flip():
    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0
    rep = validate_phi(KForm(4, coeffs))
    assert not rep.all_passed()
    assert any(e.residual > 1e-6 for e in rep.entries)


@pytest.mark.parametrize("t", [0.0, math.pi / 4.0, 3.0 * math.pi / 4.0])
def test_rotation_family_is_admissible(t):
    rep = validate_phi(phi_t_form(t))
    assert rep.all_passed(), [e.check_id for e in rep.failed()]
    m = metric_from_phi(phi_t_form(t))
    assert np.allclose(m.g, np.eye(8), atol=1e-12)


def test_remark_b_form_is_admissible():
    rep = validate_phi(remark_b_form())
    assert rep.all_passed()
    assert rep.max_residual() == 0.0


def test_the_orthonormal_frame_keeps_a_negative_orientation():
    # e^7 -> -e^7 takes phi0 to a form that is self-dual, and admissible, only
    # under the opposite orientation; the map into the orthonormal frame must
    # carry that orientation over to IDENTITY_METRIC's
    reflected = KForm(4, {idx: -c if 7 in idx else c for idx, c in canonical_phi_form().terms()})
    s = Spin7Form(reflected, FrameMetric(np.eye(8), orientation=-1))
    assert not validate_phi(reflected).all_passed()
    rep = validate_phi(s)
    assert rep.all_passed(), [e.check_id for e in rep.failed()]
    assert rep.max_residual() == 0.0


# ---------------------------------------------------------------------------
# degree-2 split

def test_lambda2_projector_ranks():
    assert projector_ranks(canonical_phi(), 2) == (7, 21)


def test_lambda2_eigenvalues_and_recombination(rng):
    s = canonical_phi()
    beta = random_form(rng, 2)
    p7, p21 = project_lambda2(beta, s)
    assert residual(p7 + p21, beta) < 1e-12
    assert residual(lambda2_operator(p7, s), -3.0 * p7) < 1e-12
    assert residual(lambda2_operator(p21, s), p21) < 1e-12
    assert abs(full_contraction(p7, p21)) < 1e-10  # orthogonal parts


def test_lambda2_component_characterization(rng):
    # the 7-part satisfies b_{ij} phi_{ijkl} = -6 b_{kl}, the 21-part +2
    s = canonical_phi()
    p7, p21 = project_lambda2(random_form(rng, 2), s)
    phi = s.dense
    for part, lam in ((p7, -6.0), (p21, 2.0)):
        arr = part.to_array()
        assert np.max(np.abs(np.einsum("ij,ijkl->kl", arr, phi) - lam * arr)) < 1e-12


def test_lambda2_zero_maps_to_zero():
    s = canonical_phi()
    p7, p21 = project_lambda2(KForm.zero(2), s)
    assert p7.coeffs == {} and p21.coeffs == {}


def test_known_21_part_element():
    # the exterior derivative of the product-frame Lee form sits in the 21-part
    s = canonical_phi()
    beta = (6.0 / 7.0) * (KForm.monomial((5, 6)) - KForm.monomial((1, 2)))
    p7, _ = project_lambda2(beta, s)
    assert p7.max_abs() == 0.0


# ---------------------------------------------------------------------------
# the two-form annihilator operator

def test_d_operator_kernel_is_21_part(rng):
    s = canonical_phi()
    for idx in canonical_indices(2):
        _, p21 = project_lambda2(KForm.monomial(idx), s)
        assert d_operator(p21, s).max_abs() < 1e-9


def test_d_operator_nonzero_on_7_part(rng):
    s = canonical_phi()
    p7, _ = project_lambda2(random_form(rng, 2), s)
    assert d_operator(p7, s).max_abs() > 1e-3
    assert d_operator(KForm.zero(2), s).coeffs == {}


# ---------------------------------------------------------------------------
# degree-3 split

def test_lambda3_recovers_covector(rng):
    s = canonical_phi()
    alpha = KForm.covector(rng.standard_normal(8))
    gamma = interior_product(alpha, s.phi)
    p8, p48 = project_lambda3(gamma, s)
    assert p48.max_abs() < 1e-12
    assert residual(p8, gamma) < 1e-12


def test_lambda3_48_part_kills_wedge(rng):
    s = canonical_phi()
    _, p48 = project_lambda3(random_form(rng, 3), s)
    assert wedge(p48, s.phi).max_abs() < 1e-12


def test_lambda3_zero():
    s = canonical_phi()
    p8, p48 = project_lambda3(KForm.zero(3), s)
    assert p8.coeffs == {} and p48.coeffs == {}


# ---------------------------------------------------------------------------
# degree-4 split

def test_lambda4_projector_ranks():
    assert projector_ranks(canonical_phi(), 4) == (1, 7, 27, 35)


def test_omega_eigenvalue_on_phi():
    s = canonical_phi()
    assert residual(omega_operator(s.phi, s), -24.0 * s.phi) == 0.0
    assert omega_operator(KForm.zero(4), s).coeffs == {}


def test_omega_kills_anti_self_dual(rng):
    s = canonical_phi()
    sigma = random_form(rng, 4)
    asd = 0.5 * (sigma - hodge_star(sigma))
    assert omega_operator(asd, s).max_abs() < 1e-12
    parts = project_lambda4(asd, s)
    for p in parts[:3]:
        assert p.max_abs() < 1e-12
    assert residual(parts[3], asd) < 1e-12


def test_lambda4_eigenvalues_sum_and_orthogonality(rng):
    s = canonical_phi()
    sigma = random_form(rng, 4)
    parts = project_lambda4(sigma, s)
    assert residual(parts[0] + parts[1] + parts[2] + parts[3], sigma) < 1e-11
    for lam, p in zip((-24.0, -12.0, 4.0, 0.0), parts):
        assert residual(omega_operator(p, s), lam * p) < 1e-10
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(full_contraction(parts[i], parts[j])) < 1e-9


def test_lambda4_phi_projects_to_1_part():
    s = canonical_phi()
    parts = project_lambda4(s.phi, s)
    assert residual(parts[0], s.phi) < 1e-12
    for p in parts[1:]:
        assert p.max_abs() < 1e-12


def test_lambda4_27_part_kills_single_contraction(rng):
    s = canonical_phi()
    parts = project_lambda4(random_form(rng, 4), s)
    arr = parts[2].to_array()
    assert np.max(np.abs(np.einsum("ijkl,mjkl->im", arr, s.dense))) < 1e-10
    # self-dual/anti-self-dual split: 1+7+27 self-dual, 35 anti-self-dual
    sd = parts[0] + parts[1] + parts[2]
    assert residual(hodge_star(sd), sd) < 1e-10
    assert residual(hodge_star(parts[3]), -1.0 * parts[3]) < 1e-10


def test_operators_reject_wrong_degree():
    s = canonical_phi()
    with pytest.raises(ValueError):
        d_operator(KForm.monomial((0, 1, 2)), s)
    with pytest.raises(ValueError):
        omega_operator(KForm.monomial((0, 1)), s)
    with pytest.raises(ValueError, match="expected a 2-form"):
        project_lambda2(KForm.monomial((0, 1, 2)), s)
    with pytest.raises(ValueError, match="expected a 4-form"):
        project_lambda4(KForm.monomial((0, 1)), s)
    with pytest.raises(ValueError, match="got degree 3"):
        s.projectors(3)


# ---------------------------------------------------------------------------
# the split under a non-identity metric, and against the bodies it replaced.  The
# references work in the input frame and raise indices with their own einsum.

def frame(seed):
    """A = I + 0.3 N with N seeded standard normal, redrawn until det A > 0."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
        if np.linalg.det(a) > 0.0:
            return a


def pulled_back_structure(seed):
    """A*phi0 with its induced metric A^T A, given directly, as tests/test_frame_change.py
    patches it: metric_from_phi is only right in orthonormal frames."""
    a = frame(seed)
    phi = np.einsum("abcd,ai,bj,ck,dl->ijkl", canonical_phi_form().to_array(), a, a, a, a,
                    optimize=True)
    return Spin7Form(KForm.from_array(phi), FrameMetric(a.T @ a))


def reference_lambda2(beta, s):
    """*(beta ^ phi) under the structure's own metric."""
    return hodge_star(wedge(beta, s.phi), s.metric)


def reference_omega(sigma, s):
    """The six einsums that omega_operator's one matmul replaced, phi^pq_kl raised by g^-1."""
    gi = s.metric.inv
    a, p = sigma.to_array(), np.einsum("pa,qb,abkl->pqkl", gi, gi, s.dense)
    return KForm.from_array(
        np.einsum("ijpq,pqkl->ijkl", a, p) + np.einsum("ikpq,pqlj->ijkl", a, p)
        + np.einsum("ilpq,pqjk->ijkl", a, p) + np.einsum("jkpq,pqil->ijkl", a, p)
        + np.einsum("jlpq,pqki->ijkl", a, p) + np.einsum("klpq,pqij->ijkl", a, p))


def reference_d_operator(alpha, s):
    """The four einsums that d_operator's derivation-matrix product replaced, alpha_i^s raised."""
    a2, p = np.einsum("ia,as->is", alpha.to_array(), s.metric.inv), s.dense
    return KForm.from_array(
        np.einsum("is,sjkl->ijkl", a2, p) + np.einsum("js,iskl->ijkl", a2, p)
        + np.einsum("ks,ijsl->ijkl", a2, p) + np.einsum("ls,ijks->ijkl", a2, p))


def reference_project_lambda2(beta, s):
    """The two-part formula: (beta - L beta) / 4 and (L beta + 3 beta) / 4."""
    lb = reference_lambda2(beta, s)
    return 0.25 * (beta - lb), 0.25 * (lb + 3.0 * beta)


def reference_project_lambda3(gamma, s):
    """a = -(1/7) gamma . phi under the structure's metric; the 8-part a . phi and the rest."""
    part8 = interior_product((-1.0 / 7.0) * contract_into(gamma, s.phi, s.metric), s.phi, s.metric)
    return part8, gamma - part8


def reference_project_lambda4(sigma, s):
    """Lagrange polynomials in Omega, applied to sigma one factor at a time."""
    eigs = EIGENVALUES[4]
    parts = []
    for lam in eigs:
        out, denom = sigma, 1.0
        for mu in eigs:
            if mu != lam:
                out = reference_omega(out, s) - mu * out
                denom *= lam - mu
        parts.append((1.0 / denom) * out)
    return tuple(parts)


REFERENCE_SPLITS = {2: reference_project_lambda2, 3: reference_project_lambda3,
                    4: reference_project_lambda4}
SPLITS = {2: project_lambda2, 3: project_lambda3, 4: project_lambda4}

# seed -> (cond(A^T A), bound on P^2 - P, bound on the input-frame checks per |sigma|_g).
# Measured at cond <= 100: P^2 - P <= 9.7e-16, input-frame checks <= 8.7e-15.  At seed 3
# the projectors, built in the orthonormal frame, keep P^2 - P at 2.7e-13 (1.3e-7 when
# they were built in the input frame); the input-frame references raise with g^-1 at
# cond 8.2e4, and the checks against them reach 3.5e-10.
SPLIT_BOUNDS = {7: (50.0, 1e-14, 1e-13), 11: (101.0, 1e-14, 1e-13), 13: (17.0, 1e-14, 1e-13),
                3: (8.3e4, 1e-12, 1e-9)}


@pytest.mark.parametrize("seed", [7, 11, 13, 3])
def test_split_under_a_non_identity_metric(seed):
    s, (cond, idem_bound, bound) = pulled_back_structure(seed), SPLIT_BOUNDS[seed]
    rng = np.random.default_rng(seed)
    assert np.linalg.cond(s.metric.g) < cond
    assert projector_ranks(s, 2) == (7, 21)
    assert projector_ranks(s, 4) == (1, 7, 27, 35)
    for num, denom in s.projectors(2) + s.projectors(4):
        p = num / denom
        assert np.max(np.abs(p @ p - p)) < idem_bound
    for degree in (2, 3, 4):
        sigma = random_form(rng, degree)
        n = math.sqrt(norm_sq(sigma, s.metric))
        parts = SPLITS[degree](sigma, s)
        # measured: recombination <= 9.4e-17 |sigma|, and exact for the 3-form
        assert residual(sum(parts[1:], parts[0]), sigma) < 1e-15 * n
        if degree == 3:
            assert residual(parts[1], sigma - parts[0]) == 0.0
        for got, want in zip(parts, REFERENCE_SPLITS[degree](sigma, s)):
            assert residual(got, want) < bound * n
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert abs(full_contraction(parts[i], parts[j], s.metric)) < bound * n * n
        if degree != 3:
            op = reference_lambda2 if degree == 2 else reference_omega
            for lam, part in zip(EIGENVALUES[degree], parts):
                assert residual(op(part, s), lam * part) < bound * n


SHIPPED = [("canonical", None), ("phi_t", 0.0), ("phi_t", math.pi / 4.0),
           ("phi_t", 3.0 * math.pi / 4.0), ("remark_b", None)]


@pytest.mark.parametrize("structure", SHIPPED + ["pullback"], ids=[
    "canonical", "phi_t(0)", "phi_t(pi/4)", "phi_t(3pi/4)", "remark_b", "pullback"])
def test_operators_and_splits_match_their_reference_bodies(structure, rng):
    # the operators work at g = I, so on the pullback they run on its orthonormal frame;
    # the splits are compared in the input frame
    if structure == "pullback":
        s, tol = pulled_back_structure(7), 1e-13  # measured <= 2e-14 over 20 draws
    else:
        s, tol = Spin7Form.from_form(build_structure_form(*structure)[0]), 4e-15  # measured <= 9.4e-16
    at_identity = orthonormal_frame(s)[0]
    integer_phi = structure in (("canonical", None), ("remark_b", None))
    sigma, beta, gamma = random_form(rng, 4), random_form(rng, 2), random_form(rng, 3)
    want = reference_omega(sigma, at_identity)
    assert residual(omega_operator(sigma, at_identity), want) <= 2e-15 * want.max_abs()  # measured 6.4e-16
    want = reference_d_operator(beta, at_identity)
    if integer_phi:
        assert d_operator(beta, at_identity) == want
    assert residual(d_operator(beta, at_identity), want) <= 2e-15 * want.max_abs()  # measured 4e-16
    for got, want in zip(project_lambda2(beta, s), reference_project_lambda2(beta, s)):
        assert residual(got, want) < tol * beta.max_abs()
    for got, want in zip(project_lambda3(gamma, s), reference_project_lambda3(gamma, s)):
        assert residual(got, want) < tol * gamma.max_abs()
    for got, want in zip(project_lambda4(sigma, s), reference_project_lambda4(sigma, s)):
        assert residual(got, want) < tol * sigma.max_abs()
    if integer_phi:  # exact parts stay exact: (phi, 0, 0, 0)
        assert project_lambda4(s.phi, s) == reference_project_lambda4(s.phi, s)


def test_a_structure_is_mapped_once_and_splits_with_the_mapped_projectors():
    s = pulled_back_structure(7)
    mapped, b = orthonormal_frame(s)
    assert orthonormal_frame(s) is orthonormal_frame(s)
    assert mapped.metric is IDENTITY_METRIC and not b.flags.writeable
    assert s.projectors(2) is mapped.projectors(2)
    assert s.projectors(4) is mapped.projectors(4)
    again, b_again = orthonormal_frame(mapped)
    assert again is mapped and b_again is IDENTITY_METRIC.g


def test_lambda3_covector_refuses_a_structure_it_would_read_at_the_identity(rng):
    s, gamma = pulled_back_structure(7), random_form(rng, 3)
    with pytest.raises(ValueError, match="Geometry.build and project_"):
        lambda3_covector(gamma, s)
    # the Lee form reaches it: computed at g = I it would be silently wrong
    with pytest.raises(ValueError, match="orthonormal_frame first"):
        lee_form(s, corpus_algebra("su2su2u1u1"))
    mapped = orthonormal_frame(s)[0]
    assert lambda3_covector(gamma, mapped).degree == 1


@pytest.mark.parametrize("structure", SHIPPED + ["pullback"], ids=[
    "canonical", "phi_t(0)", "phi_t(pi/4)", "phi_t(3pi/4)", "remark_b", "pullback"])
def test_derivation_matrix_is_orthogonal_to_the_27_part(structure):
    # X -> X . phi maps gl(8) onto Lambda^4_1 + 7 + 35 (dim 43), so D's left kernel, the
    # stabilizer spin(7), has dimension 21 and every row of D is orthogonal to the 27-part.
    # Measured: singular values 43 and 44 are 2 and <= 1.5e-15; |P_27 D^T| <= 1.8e-15
    # (5.6e-17 on phi0), against 0.44-0.5 for each other part
    if structure == "pullback":
        s = orthonormal_frame(pulled_back_structure(7))[0]
    else:
        s = Spin7Form.from_form(build_structure_form(*structure)[0])
    d = s.derivation_matrix
    assert np.linalg.matrix_rank(d, tol=1e-9) == 43
    for (num, denom), dim in zip(s.projectors(4), (1, 7, 27, 35)):
        size = np.max(np.abs((num / denom) @ d.T))
        assert size < 1e-14 if dim == 27 else size > 0.1, (dim, size)


@pytest.mark.parametrize("structure", SHIPPED + [("phi_t", 0.7), "pullback", "random"], ids=[
    "canonical", "phi_t(0)", "phi_t(pi/4)", "phi_t(3pi/4)", "remark_b", "phi_t(0.7)", "pullback",
    "random"])
def test_operator_matrices_match_the_per_monomial_references(structure):
    # in both builds each entry is one coefficient of phi or *phi times +/-1 or +/-2, so the
    # matrices agree exactly on any 4-form, a non-admissible one too
    if structure == "pullback":
        phi = orthonormal_frame(pulled_back_structure(3))[0].phi
    elif structure == "random":
        phi = random_form(np.random.default_rng(18), 4)
    else:
        phi = build_structure_form(*structure)[0]
    s = Spin7Form(phi, IDENTITY_METRIC)
    for degree, op in ((2, lambda2_operator), (4, omega_operator)):
        want = np.array([op(KForm.monomial(idx), s).vec for idx in canonical_indices(degree)]).T
        assert np.array_equal(operator_matrix(phi, degree), want), degree


def test_projectors_are_built_once_per_structure(monkeypatch):
    reads = []

    def spy(p, q):
        reads.append((p, q))
        return _merge_table(p, q)

    # operator_matrix reads the pair table once per build
    monkeypatch.setattr(spin7.structure, "_merge_table", spy)
    s = Spin7Form.from_form(canonical_phi_form())
    first = s.projectors(4)
    assert reads == [(2, 2)]
    project_lambda4(s.phi, s)
    projector_ranks(s, 4)
    assert s.projectors(4) is first and reads == [(2, 2)]
    assert [denom for _, denom in first] == [-8064, 2304, 1792, -1152]


def test_spin7form_norm_is_336_under_own_metric():
    s = Spin7Form.from_form(canonical_phi_form())
    assert norm_sq(s.phi, s.metric) == 336.0
