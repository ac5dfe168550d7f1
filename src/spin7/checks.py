"""Residual certification of the curvature and torsion identities.

Each check evaluates one named identity on a Geometry over all free index
tuples and reports the max-abs residual.  Unconditional identities (first
Bianchi family, Ricci relations, the torsion-form identities) must pass on
any admissible input and double as the engine's self-test.  Conditional
statements gate on their hypothesis: when it fails they emit
not-applicable entries; equivalence theorems become verdict-agreement
entries, never one-sided assertions.
"""

from __future__ import annotations

import functools

import numpy as np

from .connection import covariant_derivative, spin7_torsion, torsion_tensor
from .forms import KForm, interior_product, raise_slots, residual, wedge
from .geometry import Geometry, SolitonData
from .liealgebra import ce_differential
from .report import (
    DEFAULT_TOL,
    VerificationReport,
    agreement_entry,
    entry,
    na_entry,
)
from .structure import project_lambda2, validate_phi


def _report_of(fn):
    """Package a list-of-entries check as a named VerificationReport."""

    @functools.wraps(fn)
    def wrapper(geom, *args, **kwargs):
        return VerificationReport(geom.name, fn(geom, *args, **kwargs))

    return wrapper


FERNANDEZ_LABELS = ("W_0", "W_1", "W_2", "locally_conformally_balanced", "strong")


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr))) if np.size(arr) else 0.0


@_report_of
def check_structure(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    return validate_phi(geom.structure, tol).entries


@_report_of
def check_algebra(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    alg = geom.algebra
    jac, _ = alg.jacobi_residual()
    # d of every basis covector, then d again: its columns are d(d e^k)
    dd = _maxabs(alg.d_matrix(2) @ alg.d_matrix(1))
    return [
        entry("jacobi_identity", "id:jacobi", jac, tol),
        entry("differential_squares_to_zero", "id:d-squared", dd, tol),
    ]


@_report_of
def check_connection_contracts(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    alg, m = geom.algebra, geom.metric
    torsion_free = _maxabs(geom.lc.gamma - np.einsum("ijk->jik", geom.lc.gamma) - alg.c)
    recovery = _maxabs(torsion_tensor(geom.conn, alg) - geom.t3)
    nabla_phi = _maxabs(covariant_derivative(geom.conn, geom.structure.dense))
    nabla_g = max(
        _maxabs(covariant_derivative(geom.conn, m.g)),
        _maxabs(covariant_derivative(geom.lc, m.g)),
    )
    rr = _maxabs(np.einsum("ijab,abkl->ijkl", geom.curv.R, geom.structure.up((0, 1)))
                 - 2.0 * geom.curv.R)
    return [
        entry("lc_metric_compatibility", "id:metric-connection", geom.lc.metric_compat_residual(), tol),
        entry("lc_torsion_free", "id:levi-civita", torsion_free, tol),
        entry("torsion_connection_metric", "id:metric-connection", geom.conn.metric_compat_residual(), tol),
        entry("torsion_recovery", "id:prescribed-torsion", recovery, tol),
        entry("parallel_fundamental_form", "id:characteristic-connection", nabla_phi, tol),
        entry("parallel_metric", "id:metric-connection", nabla_g, tol),
        entry("curvature_antisymmetry", "id:curvature-skew-pairs", geom.curv.antisymmetry_residual(), tol),
        entry("curvature_antisymmetry_lc", "id:curvature-skew-pairs", geom.curv_lc.antisymmetry_residual(), tol),
        entry("curvature_in_stabilizer", "id:curvature-in-stabilizer", rr, tol),
    ]


@_report_of
def check_lee_and_torsion(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    m = geom.metric
    phi = geom.structure.dense
    out = []

    r1, r2, r3 = geom.lee_routes
    routes = max(residual(r1, r3), residual(r2, r3))
    out.append(entry("lee_form_routes_agree", "id:lee-form", routes, tol))

    tit = _maxabs(geom.theta_vec + (1.0 / 7.0) * np.einsum("abc,abci->i", geom.t_up3, phi))
    out.append(entry("lee_from_torsion_contraction", "id:lee-from-torsion", tit, tol))

    ta, tb = geom.torsion_routes
    out.append(entry("torsion_routes_agree", "id:characteristic-torsion",
                     residual(ta, tb), tol))

    # fixed-point form of the torsion and the codifferential of phi
    half = (
        0.5 * np.einsum("jsk,jslm->klm", geom.t_up2, phi)
        - 0.5 * np.einsum("jsl,jskm->klm", geom.t_up2, phi)
        + 0.5 * np.einsum("jsm,jskl->klm", geom.t_up2, phi)
    )
    out.append(entry("delta_phi_from_torsion", "id:codifferential-of-phi",
                     _maxabs(geom.delta_phi.to_array() - half), tol))
    torcy2 = geom.t3 - (half + (7.0 / 6.0) * np.einsum("s,sklm->klm", geom.theta_up, phi))
    out.append(entry("torsion_fixed_point", "id:torsion-fixed-point", _maxabs(torcy2), tol))

    part48 = geom.delta_phi48
    theta_phi = interior_product(geom.theta, geom.structure.phi, m)
    out.append(entry("codifferential_48_part", "id:codifferential-48-part",
                     residual(part48, geom.delta_phi + theta_phi), tol))

    split = residual(geom.torsion, part48 + (1.0 / 6.0) * theta_phi)
    out.append(entry("torsion_48_split", "id:torsion-norm-split", split, tol))
    norm_split = abs(geom.torsion_norm_sq
                     - geom.delta_phi48_norm_sq - (7.0 / 6.0) * geom.theta_norm_sq)
    out.append(entry("torsion_norm_split", "id:torsion-norm-split", norm_split, tol))

    thet = _maxabs(
        np.einsum("s,sij->ij", geom.theta_up, geom.delta_phi.to_array())
        - np.einsum("s,sij->ij", geom.theta_up, geom.t3)
    )
    out.append(entry("lee_contraction_exchange", "id:lee-contraction-exchange", thet, tol))
    return out


@_report_of
def check_bianchi_family(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    R, dt, sig = geom.curv.R, geom.dt4, geom.sigma4
    nt = geom.nabla_t
    cyc = geom.bianchi_cycle
    rcyc = (np.einsum("vxyz->xyzv", R) + np.einsum("vyzx->xyzv", R)
            + np.einsum("vzxy->xyzv", R))
    nt_last = np.einsum("vxyz->xyzv", nt)
    first = _maxabs(cyc - (dt - sig + nt_last))
    six = _maxabs(cyc - rcyc - (1.5 * dt - sig))
    reversed_bi = _maxabs(rcyc - (-0.5 * dt + nt_last))
    return [
        entry("first_bianchi_with_torsion", "id:first-bianchi-skew", first, tol),
        entry("curvature_six_term_symmetry", "id:six-term-curvature", six, tol),
        entry("reversed_first_bianchi", "id:reversed-first-bianchi", reversed_bi, tol),
    ]


@_report_of
def check_dt_expansion(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    """dT = nabla T's five-term expansion + 2 sigma_T, and nabla^g T - nabla T = sigma_T / 2."""
    nt, sig = geom.nabla_t, geom.sigma4
    cyclic = nt + np.einsum("yzxv->xyzv", nt) + np.einsum("zxyv->xyzv", nt)
    expansion = cyclic + 2.0 * sig - np.einsum("vxyz->xyzv", nt)
    return [
        entry("dT_five_term_expansion", "id:dT-covariant-expansion",
              _maxabs(geom.dt4 - expansion), tol),
        entry("lc_vs_torsion_derivative", "id:dT-derivative-difference",
              _maxabs(geom.nabla_t_lc - nt - 0.5 * sig), tol),
    ]


@_report_of
def check_ricci_relations(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    gi = geom.metric.inv
    tt = np.einsum("xia,yjb,ij,ab->xy", geom.t3, geom.t3, gi, gi)
    ric_rel = _maxabs(geom.ric_lc - (geom.ric + 0.5 * geom.delta_t2 + 0.25 * tt))
    scal_rel = abs(geom.scal_lc - (geom.scal + 0.25 * geom.torsion_norm_sq))
    antisym = _maxabs(geom.ric - geom.ric.T + geom.delta_t2)
    return [
        entry("ricci_difference_riemannian", "id:ricci-comparison", ric_rel, tol),
        entry("scalar_difference_riemannian", "id:ricci-comparison", scal_rel, tol),
        entry("ricci_antisymmetry_codifferential", "id:ricci-comparison", antisym, tol),
    ]


@_report_of
def check_spin7_ricci(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    m = geom.metric
    # full contractions raise all of phi; the Ricci-type ones keep phi_j lower
    phi_up4 = geom.structure.up((0, 1, 2, 3))
    phi_j_up3 = geom.structure.up((1, 2, 3))
    nt = geom.nabla_t
    ntheta = geom.nabla_theta
    tn, thn = geom.torsion_norm_sq, geom.theta_norm_sq
    dth = geom.delta_theta
    n48 = geom.delta_phi48_norm_sq

    ric_formula = _maxabs(
        geom.ric
        + (1.0 / 12.0) * np.einsum("iabc,jabc->ij", geom.dt4, phi_j_up3)
        + (7.0 / 6.0) * ntheta
    )
    scal_a = abs(geom.scal - (3.5 * dth + (49.0 / 18.0) * thn - tn / 3.0))
    scal_b = abs(geom.scal - (3.5 * dth + (7.0 / 3.0) * thn - n48 / 3.0))
    scal1_a = abs(geom.scal_lc - (3.5 * dth + (49.0 / 18.0) * thn - tn / 12.0))
    scal1_b = abs(geom.scal_lc - (3.5 * dth + (21.0 / 8.0) * thn - n48 / 12.0))

    sig_phi = float(np.einsum("jabc,jabc->", geom.sigma4, phi_up4))
    mid = 3.0 * float(np.einsum("jas,bcs,jabc->", geom.t3, geom.t_last_up, phi_up4))
    ng4 = max(abs(sig_phi - mid), abs(sig_phi - (2.0 * tn - (49.0 / 3.0) * thn)))

    dt_phi = float(np.einsum("jabc,jabc->", geom.dt4, phi_up4))
    nt_phi = float(np.einsum("jabc,jabc->", nt, phi_up4))
    tr_ntheta = float(np.einsum("jk,jk->", ntheta, m.inv))
    g22 = max(
        abs(dt_phi - (4.0 * nt_phi + 2.0 * sig_phi)),
        abs(dt_phi - (28.0 * tr_ntheta + 4.0 * tn - (98.0 / 3.0) * thn)),
        abs(dt_phi - (-28.0 * dth + 4.0 * n48 - 28.0 * thn)),
    )

    ricdt = max(
        _maxabs(2.0 * geom.ric + np.einsum("iabc,jabc->ij", geom.curv.R, phi_j_up3)),
        _maxabs(2.0 * geom.ric + (1.0 / 6.0) * np.einsum("iabc,jabc->ij", geom.dt4, phi_j_up3)
                + (7.0 / 3.0) * ntheta),
    )
    return [
        entry("ricci_from_dT_and_lee", "id:torsion-ricci-formula", ric_formula, tol),
        entry("scalar_from_lee", "id:torsion-scalar-formula", max(scal_a, scal_b), tol),
        entry("riemannian_scalar_formula", "id:riemannian-scalar-formula",
              max(scal1_a, scal1_b), tol),
        entry("quartic_contraction_norms", "id:quartic-contraction-norms", ng4, tol),
        entry("dT_contraction_chain", "id:dT-contraction-chain", g22, tol),
        entry("ricci_double_contraction", "id:torsion-ricci-formula", ricdt, tol),
    ]


@_report_of
def check_riemannian_bianchi(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    dt, sig, nt = geom.dt4, geom.sigma4, geom.nabla_t
    rb = _maxabs(geom.bianchi_cycle)
    out = [entry("riemannian_first_bianchi", "id:riemannian-first-bianchi", rb, tol)]
    fbt = max(_maxabs(dt + 2.0 * nt), _maxabs(dt - (2.0 / 3.0) * sig))
    out.append(entry("parallel_type_torsion_relations", "id:riemannian-first-bianchi", fbt, tol))
    if rb <= tol:
        out.append(entry("ricci_flat_under_first_bianchi", "id:first-bianchi-ricci-flat",
                         _maxabs(geom.ric), tol))
    else:
        out.append(na_entry("ricci_flat_under_first_bianchi", "id:first-bianchi-ricci-flat",
                            "first Bianchi identity does not hold here"))
    return out


@_report_of
def check_s2lambda2(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    nt, dt = geom.nabla_t, geom.dt4
    four_form = _maxabs(nt + np.einsum("yxzv->xyzv", nt))
    pair = _maxabs(geom.pair_asymmetry)
    dt_rel = _maxabs(dt - 4.0 * geom.nabla_t_lc)
    verdicts = [four_form <= tol, pair <= tol, dt_rel <= tol]
    return [
        entry("nabla_T_is_four_form", "id:pair-symmetric-curvature", four_form, tol),
        entry("curvature_pair_symmetry", "id:pair-symmetric-curvature", pair, tol),
        entry("dT_vs_lc_derivative", "id:pair-symmetric-curvature", dt_rel, tol),
        agreement_entry("pair_symmetry_equivalence", "id:pair-symmetric-curvature",
                        verdicts, tol),
    ]


@_report_of
def check_closed_torsion(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    ids = ["ricci_from_lee_derivative", "lee_exterior_in_21part", "ricci_flat",
           "lee_parallel", "scalar_flat", "lee_coclosed", "torsion_coclosed",
           "closed_chain_agreement"]
    anchor = "id:closed-torsion"
    if geom.dtorsion.max_abs() > tol:
        return [na_entry(i, anchor, "torsion is not closed here") for i in ids]
    clos1 = _maxabs(geom.ric + (7.0 / 6.0) * geom.nabla_theta)
    ric0 = _maxabs(geom.ric)
    nth0 = _maxabs(geom.nabla_theta)
    scal0 = abs(geom.scal)
    dth0 = abs(geom.delta_theta)
    dT0 = geom.delta_torsion.max_abs()
    # the norm of T and the Riemannian scalar are frame constants on an
    # invariant geometry, so the six-way equivalence reduces to these four
    verdicts = [ric0 <= tol, nth0 <= tol, scal0 <= tol, dth0 <= tol]
    return [
        entry(ids[0], anchor, clos1, tol),
        entry(ids[1], anchor, geom.dtheta7.max_abs(), tol),
        entry(ids[2], anchor, ric0, tol),
        entry(ids[3], anchor, nth0, tol),
        entry(ids[4], anchor, scal0, tol),
        entry(ids[5], anchor, dth0, tol),
        entry(ids[6], anchor, dT0, tol, notes="harmonic together with dT = 0"),
        agreement_entry(ids[7], anchor, verdicts, tol),
    ]


@_report_of
def check_symmetric_ricci(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    m = geom.metric
    dphi3 = geom.delta_phi.to_array()

    # codifferential of the torsion from the Lee form, always applicable
    dth_up = raise_slots(geom.dtheta.to_array(), m, (0, 1))
    rhs = (7.0 / 6.0) * (
        0.5 * np.einsum("st,stlm->lm", dth_up, geom.structure.dense)
        - np.einsum("k,klm->lm", geom.theta_up, dphi3)
    )
    deltat = _maxabs(geom.delta_t2 - rhs)
    out = [entry("codifferential_of_torsion_formula", "id:torsion-codifferential", deltat, tol)]

    anchor = "id:symmetric-ricci"
    if geom.delta_torsion.max_abs() > tol:
        out.append(na_entry("lee_nabla_exterior_formula", anchor, "Ricci tensor is not symmetric here"))
        out.append(na_entry("lee_nabla_exterior_in_7part", anchor, "Ricci tensor is not symmetric here"))
        out.append(na_entry("symmetric_ricci_equivalence", anchor, "Ricci tensor is not symmetric here"))
        return out

    nth = geom.nabla_theta
    dnth = nth - nth.T
    th_t = np.einsum("s,sij->ij", geom.theta_up, geom.t3)
    phi_up2 = geom.structure.up((0, 1))
    th_t_phi = np.einsum("ab,abij->ij", th_t, phi_up2)
    new_formula = max(
        _maxabs(dnth - (-(1.0 / 3.0) * th_t + (1.0 / 6.0) * th_t_phi)),
        _maxabs(dnth + (1.0 / 6.0) * np.einsum("ab,abij->ij", dnth, phi_up2)),
    )
    out.append(entry("lee_nabla_exterior_formula", anchor, new_formula, tol))
    _, part21 = project_lambda2(KForm.from_array(dnth), geom.structure)
    out.append(entry("lee_nabla_exterior_in_7part", anchor, part21.max_abs(), tol))

    sym_v = _maxabs(dnth) <= tol
    tth_v = _maxabs(th_t_phi - 2.0 * th_t) <= tol
    dth_v = geom.dtheta7.max_abs() <= tol
    out.append(agreement_entry("symmetric_ricci_equivalence", anchor, [sym_v, tth_v, dth_v], tol))
    return out


@_report_of
def check_second_bianchi(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    gi = geom.metric.inv
    nric = covariant_derivative(geom.conn, geom.ric)
    div_ric = np.einsum("ijk,ik->j", nric, gi)
    # frame constants: the scalar and torsion-norm gradients vanish identically
    e1 = _maxabs(
        -2.0 * div_ric
        + np.einsum("ab,abj->j", geom.delta_t2, geom.t_up2)
        + (1.0 / 6.0) * np.einsum("abc,jabc->j", geom.t_up3, geom.dt4)
    )
    ndt = covariant_derivative(geom.conn, geom.delta_t2)
    iii = _maxabs(
        np.einsum("ikj,ik->j", ndt, gi)
        - 0.5 * np.einsum("ia,iaj->j", geom.delta_t2, geom.t_up2)
    )
    return [
        entry("second_bianchi_contracted", "id:second-bianchi", e1, tol),
        entry("divergence_of_codifferential", "id:codifferential-divergence", iii, tol),
    ]


@_report_of
def check_main_theorems(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Consistency checks for the parallel-torsion theorems.

    When the exterior derivative of the Lee form lies in the 21-part and the
    curvature is pair-symmetric with zero Ricci tensor, the torsion must be
    parallel for both connections and the Lee-form contractions vanish.
    """
    anchor = "id:parallel-torsion-theorems"
    ids = ["ricci_quartic_balance", "lc_parallel_torsion", "parallel_torsion",
           "lee_parallel_under_pair_symmetry", "quartic_lee_contractions"]
    hyp_lee = geom.dtheta7.max_abs() <= tol
    pair = _maxabs(geom.pair_asymmetry) <= tol
    ric0 = _maxabs(geom.ric) <= tol
    if not (hyp_lee and pair and ric0):
        return [na_entry(i, anchor, "pair-symmetry hypotheses fail here") for i in ids]

    # phi_j^{abc} against the Ricci-type terms, phi^{jkl}_i against the quartic ones
    phi_j_up3 = geom.structure.up((1, 2, 3))
    phi_up3_i = geom.structure.up((0, 1, 2))
    ntheta = geom.nabla_theta
    su1 = _maxabs(geom.ric + 3.5 * ntheta
                  + (1.0 / 6.0) * np.einsum("iabc,jabc->ij", geom.sigma4, phi_j_up3))
    nthh = max(
        _maxabs(np.einsum("pjkl,jkli->pi", geom.nabla_t, phi_up3_i) - 7.0 * ntheta),
        _maxabs(np.einsum("pjkl,jkli->pi", geom.sigma4, phi_up3_i) + 21.0 * ntheta),
        _maxabs(np.einsum("pjkl,jkli->pi", geom.dt4, phi_up3_i) + 14.0 * ntheta),
    )
    return [
        entry(ids[0], anchor, su1, tol),
        entry(ids[1], anchor, _maxabs(geom.nabla_t_lc), tol),
        entry(ids[2], anchor, _maxabs(geom.nabla_t), tol),
        entry(ids[3], anchor, _maxabs(ntheta), tol),
        entry(ids[4], anchor, nthh, tol),
    ]


@_report_of
def check_soliton(geom: Geometry, soliton: SolitonData | None = None,
                  tol: float = DEFAULT_TOL) -> VerificationReport:
    """Steady gradient soliton battery for closed torsion.

    The default gradient is the zero covector (constant potential), the
    invariant-geometry case.
    """
    anchor = "id:steady-soliton"
    ids = ["soliton_vector_parallel", "soliton_ricci_hessian",
           "soliton_torsion_gradient", "soliton_lee_transport",
           "soliton_metric_invariance", "soliton_structure_invariance"]
    if geom.dtorsion.max_abs() > tol:
        return [na_entry(i, anchor, "torsion is not closed here") for i in ids]
    if soliton is None:
        soliton = SolitonData.constant_potential()
    df = soliton.f_gradient
    v = (7.0 / 6.0) * geom.theta_vec - df
    v_form = KForm.covector(v)

    nv = covariant_derivative(geom.conn, v)
    hess = covariant_derivative(geom.conn, df)
    df_t = np.einsum("s,sij->ij", raise_slots(df, geom.metric, (0,)), geom.t3)
    v_t = interior_product(v_form, geom.torsion, geom.metric)
    lie_g = covariant_derivative(geom.lc, v)
    lie_g = lie_g + lie_g.T
    lie_phi = ce_differential(interior_product(v_form, geom.structure.phi, geom.metric),
                              geom.algebra) \
        + interior_product(v_form, geom.dphi, geom.metric)
    notes = "constant potential (df = 0)" if not np.any(df) else "user-supplied gradient"
    return [
        entry(ids[0], anchor, _maxabs(nv), tol, notes=notes),
        entry(ids[1], anchor, _maxabs(geom.ric + hess), tol),
        entry(ids[2], anchor, _maxabs(geom.delta_t2 + df_t), tol),
        entry(ids[3], anchor, residual((7.0 / 6.0) * geom.dtheta, v_t), tol),
        entry(ids[4], anchor, _maxabs(lie_g), tol),
        entry(ids[5], anchor, lie_phi.max_abs(), tol),
    ]


def classify_fernandez(geom: Geometry, tol: float = DEFAULT_TOL) -> list[str]:
    """Structure classes by defining residual, plus the derived labels.

    The conformally-parallel class is only reported when it holds
    nontrivially (nonzero d phi), so the flat baseline reads as
    closed + balanced rather than everything at once.
    """
    dphi = geom.dphi
    w0 = dphi.max_abs() <= tol
    holds = {
        "W_0": w0,
        "W_1": geom.theta.max_abs() <= tol,
        "W_2": residual(dphi, wedge(geom.theta, geom.structure.phi)) <= tol and not w0,
        "locally_conformally_balanced": geom.dtheta.max_abs() <= tol,
        "strong": geom.dtorsion.max_abs() <= tol,
    }
    return [label for label in FERNANDEZ_LABELS if holds[label]]


@_report_of
def check_fernandez(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    labels = ",".join(classify_fernandez(geom, tol)) or "generic"
    return [entry("fernandez_classes", "id:structure-classes", 0.0, tol, notes=labels)]


@_report_of
def check_bi_spin7(geom: Geometry, tol: float = DEFAULT_TOL) -> VerificationReport:
    anchor = "id:bi-structure"
    mirror = geom.algebra.mirrored()
    t_mirror = spin7_torsion(geom.structure, mirror)
    out = [entry("bi_structure_opposite_torsion", anchor,
                 residual(t_mirror, -1.0 * geom.torsion), tol)]
    if geom.dtorsion.max_abs() <= tol:
        out.append(entry("bi_structure_mirror_closed", anchor,
                         ce_differential(t_mirror, mirror).max_abs(), tol))
    else:
        out.append(na_entry("bi_structure_mirror_closed", anchor,
                            "torsion is not closed here"))
    return out


# The report order: every report lists its entries group by group in this order.
CHECKS = (check_structure, check_algebra, check_connection_contracts, check_lee_and_torsion,
          check_bianchi_family, check_dt_expansion, check_ricci_relations, check_spin7_ricci,
          check_riemannian_bianchi, check_s2lambda2, check_closed_torsion, check_symmetric_ricci,
          check_second_bianchi, check_main_theorems, check_soliton, check_fernandez,
          check_bi_spin7)


def full_report(geom: Geometry, soliton: SolitonData | None = None,
                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Every group of ``CHECKS`` in order; identical inputs give identical reports."""
    rep = VerificationReport(geom.name)
    for group in CHECKS:
        # looked up by name, so a wrapper set on the module (perfbench's tracer) sees it
        check = globals()[group.__name__]
        args = (soliton,) if check is check_soliton else ()
        rep.extend(check(geom, *args, tol=tol).entries)
    return rep
