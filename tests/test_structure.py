"""The fundamental form, its identities and the irreducible projections."""

import math
import warnings

import numpy as np
import pytest

from spin7.forms import (
    KForm,
    canonical_indices,
    full_contraction,
    hodge_star,
    interior_product,
    norm_sq,
    residual,
    wedge,
)
from spin7.structure import (
    Spin7Form,
    canonical_phi,
    canonical_phi_form,
    d_operator,
    lambda2_operator,
    lambda2_ranks,
    lambda4_ranks,
    metric_from_phi,
    omega_operator,
    project_lambda2,
    project_lambda3,
    project_lambda4,
    validate_phi,
)
from spin7.corpus import phi_t_form, remark_b_form


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


# ---------------------------------------------------------------------------
# degree-2 split

def test_lambda2_projector_ranks():
    assert lambda2_ranks(canonical_phi()) == (7, 21)


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
    assert lambda4_ranks(canonical_phi()) == (1, 7, 27, 35)


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


def test_spin7form_norm_is_336_under_own_metric():
    s = Spin7Form.from_form(canonical_phi_form())
    assert norm_sq(s.phi, s.metric) == 336.0
