"""Acceptance gate: the package-level criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Every tolerance here is pinned; nothing is calibrated at
run time.
"""

import math

import numpy as np

from operator_references import d_operator, lambda2_operator, mirror_algebra, omega_operator
from spin7.checks import check_closed_torsion, check_soliton, full_report
from spin7.cli import main as cli_main
from spin7.connection import (
    connection_from_torsion,
    covariant_derivative,
    curvature,
    levi_civita,
    spin7_torsion,
)
from spin7.corpus import VERIFY_TARGETS, build_geometry, corpus_algebra
from spin7.dense import dense_components, dense_star, dense_wedge
from spin7.forms import (
    KForm,
    canonical_indices,
    hodge_star,
    norm_sq,
    residual,
    wedge,
)
from spin7.geometry import Geometry, SolitonData
from spin7.liealgebra import ce_differential
from spin7.structure import (
    canonical_phi,
    canonical_phi_form,
    metric_from_phi,
    project_lambda2,
    project_lambda4,
    validate_phi,
)

TOL = 1e-9

FLAT_CARTAN_TARGETS = [
    ("abelian", "canonical", None),
    ("su2su2u1u1", "canonical", None),
    ("su2su2u1u1", "phi_t", 0.0),
    ("su2su2u1u1", "phi_t", math.pi / 4.0),
    ("su2su2u1u1", "phi_t", 3.0 * math.pi / 4.0),
    ("su2su2u1u1", "remark_b", None),
    ("su3", "canonical", None),
]

# check ids realizing the unconditional identity battery of criterion 5
UNCONDITIONAL_IDENTITY_IDS = (
    "first_bianchi_with_torsion",        # cyclic curvature sum with torsion terms
    "curvature_six_term_symmetry",       # six-term curvature identity
    "reversed_first_bianchi",            # cyclic sum in the last three slots
    "ricci_difference_riemannian",       # Ricci comparison, tensor display
    "scalar_difference_riemannian",      # Ricci comparison, scalar display
    "ricci_antisymmetry_codifferential",  # Ricci comparison, skew display
    "dT_five_term_expansion",            # exterior derivative of the torsion
    "lc_vs_torsion_derivative",          # derivative difference of the torsion
    "second_bianchi_contracted",         # contracted second Bianchi identity
    "divergence_of_codifferential",      # divergence of the torsion codifferential
    "curvature_in_stabilizer",           # curvature 2-form lies in the stabilizer
    "quartic_contraction_norms",         # quartic 4-form contraction vs norms
    "dT_contraction_chain",              # dT contraction chain vs norms
    "riemannian_scalar_formula",         # Riemannian scalar from Lee data
    "ricci_from_dT_and_lee",             # torsion Ricci from dT and Lee form
    "scalar_from_lee",                   # torsion scalar from Lee data
    "codifferential_of_torsion_formula",  # codifferential of T from the Lee form
    "codifferential_48_part",            # 48-part of the codifferential of phi
    "torsion_48_split",                  # torsion split through the 48-part
    "torsion_norm_split",                # squared-norm split of the torsion
)

ALL_CORPUS = VERIFY_TARGETS + (("heisenberg", "canonical", None),)


def report(n, ok, text):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_canonical_form_battery():
    phi = canonical_phi_form()
    exact = (
        len(phi.coeffs) == 14
        and residual(hodge_star(phi), phi) == 0.0
        and norm_sq(phi) == 336.0
        and np.array_equal(metric_from_phi(phi).g, np.eye(8))
    )
    p = phi.to_array()
    three = np.einsum("ijpq,ajpq->ia", p, p)
    exact = exact and np.array_equal(three, 42.0 * np.eye(8))
    lhs4 = np.einsum("ijks,abcs->ijkabc", p, p)
    d = np.eye(8)
    rhs4 = (
        np.einsum("ia,jb,kc->ijkabc", d, d, d) + np.einsum("ib,jc,ka->ijkabc", d, d, d)
        + np.einsum("ic,ja,kb->ijkabc", d, d, d) - np.einsum("ia,jc,kb->ijkabc", d, d, d)
        - np.einsum("ib,ja,kc->ijkabc", d, d, d) - np.einsum("ic,jb,ka->ijkabc", d, d, d)
        - np.einsum("ia,jkbc->ijkabc", d, p) - np.einsum("ja,kibc->ijkabc", d, p)
        - np.einsum("ka,ijbc->ijkabc", d, p) - np.einsum("ib,jkca->ijkabc", d, p)
        - np.einsum("jb,kica->ijkabc", d, p) - np.einsum("kb,ijca->ijkabc", d, p)
        - np.einsum("ic,jkab->ijkabc", d, p) - np.einsum("jc,kiab->ijkabc", d, p)
        - np.einsum("kc,ijab->ijkabc", d, p)
    )
    exact = exact and np.array_equal(lhs4, rhs4)
    float_path = validate_phi(phi, tol=1e-12)
    ok = exact and float_path.all_passed() and float_path.max_residual() < 1e-12
    report(1, ok, "canonical-form battery exact, float paths < 1e-12")


def test_criterion_2_representation_theory(rng):
    s = canonical_phi()
    # the 21- and 27-parts are what the bases leave: 28 - 7 and 70 - 1 - 7 - 35
    ok = [len(q) for q in (s.lambda2_basis, *s.lambda4_bases)] == [7, 1, 7, 35]
    worst2 = worst4 = worst_d = 0.0
    for idx in canonical_indices(2):
        p7, p21 = project_lambda2(KForm.monomial(idx), s)
        worst2 = max(worst2,
                     residual(lambda2_operator(p7, s), -3.0 * p7),
                     residual(lambda2_operator(p21, s), 1.0 * p21))
        worst_d = max(worst_d, d_operator(p21, s).max_abs())
    for _ in range(10):
        sigma = KForm(4, {idx: rng.standard_normal() for idx in canonical_indices(4)})
        for lam, part in zip((-24.0, -12.0, 4.0, 0.0), project_lambda4(sigma, s)):
            worst4 = max(worst4, residual(omega_operator(part, s), lam * part))
    ok = ok and worst2 < TOL and worst4 < TOL and worst_d < TOL
    report(2, ok, f"basis sizes 7 and 1/7/35, so 7/21 and 1/7/27/35; eigenvalue residuals "
                  f"{max(worst2, worst4):.1e}; annihilator on 21-part {worst_d:.1e}")


def test_criterion_3_product_group_regression():
    geom = build_geometry("su2su2u1u1", "canonical")
    t_expect = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    theta_expect = (6.0 / 7.0) * (KForm.basis_covector(4) - KForm.basis_covector(3))
    dtheta_expect = (6.0 / 7.0) * (KForm.monomial((5, 6)) - KForm.monomial((1, 2)))
    p7, _ = project_lambda2(geom.dtheta, geom.structure)
    checks = {
        "torsion": residual(geom.torsion, t_expect),
        "closed": geom.dtorsion.max_abs(),
        "lee": residual(geom.theta, theta_expect),
        "dlee": residual(geom.dtheta, dtheta_expect),
        "dlee_7part": p7.max_abs(),
        "parallel_phi": float(np.max(np.abs(covariant_derivative(geom.conn,
                                                                 geom.structure.phi.dense)))),
        "ricci_lee": float(np.max(np.abs(geom.ric + (7.0 / 6.0) * geom.nabla_theta))),
        "t_norm": abs(geom.torsion_norm_sq - 12.0),
        "lee_norm": abs(geom.theta_norm_sq - 72.0 / 49.0),
        "scal_shift": abs(geom.scal_lc - geom.scal - 3.0),
    }
    worst = max(checks.values())
    report(3, worst < TOL, f"product-group regression, worst residual {worst:.1e}")


def test_criterion_4_su3_regression():
    alg = corpus_algebra("su3")
    s = canonical_phi()
    t = spin7_torsion(s, alg)[2][0]
    cartan_torsion = KForm.from_array(-alg.c)
    conn = connection_from_torsion(levi_civita(alg), t.to_array())
    mirror_t = spin7_torsion(s, mirror_algebra(alg))[2][0]
    checks = {
        "torsion_is_minus_bracket": residual(t, cartan_torsion),
        "closed": ce_differential(t, alg).max_abs(),
        "flat": float(np.max(np.abs(curvature(conn, alg)))),
        "mirror": residual(mirror_t, -1.0 * t),
    }
    worst = max(checks.values())
    report(4, worst < TOL, f"su3 regression, worst residual {worst:.1e}")


def test_criterion_5_identity_suite_and_corruption():
    worst = 0.0
    for target in ALL_CORPUS:
        geom = build_geometry(*target)
        by_id = {e.check_id: e for e in full_report(geom).entries}
        for cid in UNCONDITIONAL_IDENTITY_IDS:
            e = by_id[cid]
            assert not e.not_applicable, (geom.name, cid)
            worst = max(worst, e.residual)
    ok = worst < TOL

    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0
    bad = Geometry.build(corpus_algebra("su2su2u1u1"), KForm(4, coeffs), name="corrupted")
    bad_rep = full_report(bad)
    detects = (not bad_rep.all_passed()
               and max(e.residual for e in bad_rep.failed()) > 1e-6)
    report(5, ok and detects,
           f"identity suite worst residual {worst:.1e} on all corpus entries; "
           f"single sign flip detected")


def test_criterion_6_closed_torsion_chain():
    worst = 0.0
    for target in FLAT_CARTAN_TARGETS:
        geom = build_geometry(*target)
        entries = {e.check_id: e for e in check_closed_torsion(geom)}
        for cid in ("ricci_flat", "lee_parallel", "scalar_flat", "lee_coclosed",
                    "torsion_coclosed"):
            assert not entries[cid].not_applicable, (geom.name, cid)
            worst = max(worst, entries[cid].residual)
        worst = max(worst, geom.dtorsion.max_abs())
    report(6, worst < TOL, f"closed-torsion chain on flat entries, worst {worst:.1e}")


def test_criterion_7_soliton_suite():
    worst = 0.0
    for target in FLAT_CARTAN_TARGETS:
        geom = build_geometry(*target)
        for e in check_soliton(geom, SolitonData.constant_potential()):
            assert not e.not_applicable, (geom.name, e.check_id)
            worst = max(worst, e.residual)
    report(7, worst < TOL, f"constant-potential soliton suite, worst {worst:.1e}")


def test_criterion_8_oracle_equivalence(rng):
    def random_form(degree):
        return KForm(degree, {idx: rng.standard_normal()
                              for idx in canonical_indices(degree)
                              if rng.random() < 0.6})

    worst = 0.0
    for degree in (0, 1, 2, 3, 4):
        for _ in range(100):
            f = random_form(degree)
            dense = dense_components(f)
            back = KForm.from_array(dense)
            worst = max(worst, residual(back, f))
            if 1 <= degree <= 4:
                sparse_star = hodge_star(f)
                dense_dual = dense_star(dense)
                for idx in canonical_indices(8 - degree):
                    worst = max(worst, abs(dense_dual[idx]
                                           - sparse_star.coeffs.get(idx, 0.0)))
    for _ in range(100):
        a, b = random_form(2), random_form(2)
        via_sparse = dense_components(wedge(a, b))
        via_dense = dense_wedge(dense_components(a), dense_components(b))
        worst = max(worst, float(np.max(np.abs(via_sparse - via_dense))))

    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    brute = float(np.sum(dense_components(t) ** 2))
    ok = worst < 1e-12 and brute == 12.0 and norm_sq(t) == 12.0
    report(8, ok, f"oracle agreement {worst:.1e} on 100 forms per degree; "
                  f"brute-force torsion norm 12")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["verify", "--algebra", "su2su2u1u1", "--structure",
                         "phi_t", "--t", "pi/4", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    report(9, outs[0] == outs[1], "byte-identical reports across runs")
