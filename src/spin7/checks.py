"""Residual certification of the curvature and torsion identities.

Each check evaluates one named identity on a Geometry over all free index
tuples and reports the max-abs residual.  Unconditional identities (first
Bianchi family, Ricci relations, the torsion-form identities) must pass on
any admissible input and double as the engine's self-test.  Conditional
statements gate on their hypothesis; equivalence theorems become
verdict-agreement entries, never one-sided assertions.

A group declares its rows on its ``_report_of`` decorator: (check_id,
anchor), or (check_id, anchor, gate) for a conditional row.  ``GATES`` names
each hypothesis once, as the ``READINGS`` (max-abs values that rows read too,
each taken once per report into a dict of its own) whose max is its residual
plus the note its not-applicable entries carry; an entry applies iff its
gate's residual is <= tol.  The group is a generator of (check_id, value)
pairs, and the decorator builds every entry, N/A ones included, from the
rows.  ``CHECKS`` is the report order and ``ENTRIES`` the catalog of every row in it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .connection import covariant_derivative, torsion_tensor
from .forms import KForm, contract_into, full_contraction, interior_product, residual
from .geometry import Geometry, SolitonData
from .liealgebra import ce_differential
from .report import DEFAULT_TOL, VerificationReport, agreement_entry, entry, na_entry
from .structure import phi_identities, project_lambda2


def _maxabs(arr) -> float:
    arr = np.abs(arr)
    return float(np.maximum.reduce(arr, axis=None)) if arr.size else 0.0


# reading -> its max-abs value on a Geometry, taken at most once per report
READINGS = {
    "bianchi_cycle": lambda geom: _maxabs(geom.bianchi_cycle),
    "pair_asymmetry": lambda geom: _maxabs(geom.pair_asymmetry),
    "ric": lambda geom: _maxabs(geom.ric),
    "dtheta7": lambda geom: geom.dtheta7.max_abs(),
    "dtorsion": lambda geom: geom.dtorsion.max_abs(),
    "delta_torsion": lambda geom: geom.delta_torsion.max_abs(),
}

# gate -> (the readings whose max is its residual, the note of the entries it puts out of scope)
GATES = {
    "first_bianchi": (("bianchi_cycle",), "first Bianchi identity does not hold here"),
    "closed_torsion": (("dtorsion",), "torsion is not closed here"),
    "symmetric_ricci": (("delta_torsion",), "Ricci tensor is not symmetric here"),
    # d theta in the 21-part, R pair-symmetric, Ric = 0
    "pair_symmetry": (("dtheta7", "pair_asymmetry", "ric"), "pair-symmetry hypotheses fail here"),
}


def _read(geom: Geometry, name: str, readings: dict) -> float:
    """The reading ``name`` of geom, taken once into one report's ``readings``."""
    return readings[name] if name in readings else readings.setdefault(name, READINGS[name](geom))


def _holds(geom: Geometry, gate: str, readings: dict, tol: float) -> bool:
    """Whether the gate's residual, its readings' max, is <= tol: each is, and none is nan."""
    return all(_read(geom, name, readings) <= tol for name in GATES[gate][0])


def _report_of(*rows):
    """Make a generator of (check_id, value) pairs a group returning a named VerificationReport.

    A value is a residual, a (residual, notes) pair, or a list of verdicts
    that an agreement entry requires to agree.  The rows are walked in order
    and the generator advanced once per row; from the first row whose gate's
    residual is not <= tol, it is advanced no further and every row left is
    not applicable with that gate's note.  A yielded id other than its row's
    raises.  Readings are taken into ``readings``, passed on to a generator that takes it.
    """
    rows = tuple((check_id, anchor, gate[0] if gate else None) for check_id, anchor, *gate in rows)
    # a gate is read on the first of a run of rows that share it; the rest share its verdict
    walk = [(check_id, anchor, gate if gate != before else None)
            for (check_id, anchor, gate), before in zip(rows, (None, *(row[2] for row in rows)))]

    def decorate(fn):
        takes_readings = "readings" in (fn.__kwdefaults__ or ())

        @functools.wraps(fn)
        def group(geom, *args, tol=DEFAULT_TOL, readings=None, **kwargs):
            readings = {} if readings is None else readings
            if takes_readings:
                kwargs["readings"] = readings
            values = fn(geom, *args, tol=tol, **kwargs)
            entries = []
            for check_id, anchor, gate in walk:
                if gate is not None and not _holds(geom, gate, readings, tol):
                    note = GATES[gate][1]
                    entries += [na_entry(i, a, note) for i, a, _ in rows[len(entries):]]
                    break
                got, value = next(values, (None, None))
                if got != check_id:
                    raise RuntimeError(f"{fn.__name__} yielded {got!r} for the row {check_id!r}")
                if type(value) is list:
                    entries.append(agreement_entry(check_id, anchor, value, tol))
                elif type(value) is tuple:
                    entries.append(entry(check_id, anchor, value[0], tol, value[1]))
                else:
                    entries.append(entry(check_id, anchor, value, tol))
            else:
                if (extra := next(values, None)) is not None:
                    raise RuntimeError(f"{fn.__name__} yielded {extra[0]!r} past its last row")
            return VerificationReport(geom.name, entries)

        group.rows = rows
        return group

    return decorate


FERNANDEZ_LABELS = ("W_0", "W_1", "W_2", "locally_conformally_balanced", "strong")


@_report_of(*((i, "id:fundamental-form-identities") for i in (
    "induced_metric_spd", "self_dual", "contraction_scalar_336", "contraction_metric_42",
    "contraction_two_index", "contraction_one_index")))
def check_structure(geom: Geometry, tol: float = DEFAULT_TOL):
    yield "induced_metric_spd", 0.0  # a Geometry's structure carries its metric
    yield from phi_identities(geom.structure)


@_report_of(("jacobi_identity", "id:jacobi"), ("differential_squares_to_zero", "id:d-squared"))
def check_algebra(geom: Geometry, tol: float = DEFAULT_TOL):
    alg = geom.algebra
    yield "jacobi_identity", alg.jacobi[0]
    # d of every basis covector, then d again: its columns are d(d e^k)
    yield "differential_squares_to_zero", _maxabs(alg.d_matrix(2) @ alg.d_matrix(1))


@_report_of(
    ("lc_metric_compatibility", "id:metric-connection"), ("lc_torsion_free", "id:levi-civita"),
    ("torsion_connection_metric", "id:metric-connection"),
    ("torsion_recovery", "id:prescribed-torsion"),
    ("parallel_fundamental_form", "id:characteristic-connection"),
    ("parallel_metric", "id:metric-connection"),
    ("curvature_antisymmetry", "id:curvature-skew-pairs"),
    ("curvature_antisymmetry_lc", "id:curvature-skew-pairs"),
    ("curvature_in_stabilizer", "id:curvature-in-stabilizer"))
def check_connection_contracts(geom: Geometry, tol: float = DEFAULT_TOL):
    alg, lc, conn, R = geom.algebra, geom.lc, geom.conn, geom.curv
    # Gamma_ijk + Gamma_ikj: a metric connection's coefficients are skew in j, k
    lc_compat, conn_compat = (_maxabs(g + g.transpose(0, 2, 1)) for g in (lc, conn))
    yield "lc_metric_compatibility", lc_compat
    yield "lc_torsion_free", _maxabs(torsion_tensor(lc, alg))
    yield "torsion_connection_metric", conn_compat
    yield "torsion_recovery", _maxabs(torsion_tensor(conn, alg) - geom.torsion.dense)
    # nabla phi on phi's 70 canonical components: -Gamma.reshape(8, 64) @ D
    yield "parallel_fundamental_form", _maxabs(
        conn.reshape(8, 64) @ geom.structure.derivation_matrix)
    # nabla g at g = I is -(Gamma_ijk + Gamma_ikj), bit for bit the compatibility rows' table
    yield "parallel_metric", max(conn_compat, lc_compat)
    # R_ijkl + R_jikl and R_ijkl + R_ijlk: a curvature is skew in each pair
    for check_id, r in (("curvature_antisymmetry", R), ("curvature_antisymmetry_lc", geom.curv_lc)):
        yield check_id, max(_maxabs(r + r.transpose(1, 0, 2, 3)),
                            _maxabs(r + r.transpose(0, 1, 3, 2)))
    yield "curvature_in_stabilizer", _maxabs(
        (R.reshape(64, 64) @ geom.structure.phi.dense.reshape(64, 64)).reshape(R.shape) - 2.0 * R)


@_report_of(
    ("lee_form_routes_agree", "id:lee-form"), ("lee_from_torsion_contraction", "id:lee-from-torsion"),
    ("torsion_routes_agree", "id:characteristic-torsion"),
    ("delta_phi_from_torsion", "id:codifferential-of-phi"),
    ("torsion_fixed_point", "id:torsion-fixed-point"),
    ("codifferential_48_part", "id:codifferential-48-part"),
    ("torsion_48_split", "id:torsion-norm-split"), ("torsion_norm_split", "id:torsion-norm-split"),
    ("lee_contraction_exchange", "id:lee-contraction-exchange"))
def check_lee_and_torsion(geom: Geometry, tol: float = DEFAULT_TOL):
    phi, t3 = geom.structure.phi, geom.torsion.dense
    r1, r2, r3 = geom.lee_routes
    yield "lee_form_routes_agree", max(residual(r1, r3), residual(r2, r3))
    # theta_i = -(1/7) T_abc phi_abci, and contract_into carries 1/3!
    yield "lee_from_torsion_contraction", residual(
        geom.theta, (-6.0 / 7.0) * contract_into(geom.torsion, phi))
    yield "torsion_routes_agree", residual(*geom.torsion_routes)

    # fixed-point form of the torsion and the codifferential of phi; x_klm = T_jsk phi_jslm
    x = (t3.reshape(64, 8).T @ phi.dense.reshape(64, 64)).reshape(8, 8, 8)
    half = 0.5 * (x - x.transpose(1, 0, 2) + x.transpose(1, 2, 0))
    yield "delta_phi_from_torsion", _maxabs(geom.delta_phi.dense - half)
    yield "torsion_fixed_point", _maxabs(t3 - (half + (7.0 / 6.0) * geom.theta_phi.dense))

    part48 = geom.delta_phi48
    yield "codifferential_48_part", residual(part48, geom.delta_phi + geom.theta_phi)
    yield "torsion_48_split", residual(geom.torsion, part48 + (1.0 / 6.0) * geom.theta_phi)
    yield "torsion_norm_split", abs(geom.torsion_norm_sq - geom.delta_phi48_norm_sq
                                    - (7.0 / 6.0) * geom.theta_norm_sq)
    yield "lee_contraction_exchange", residual(geom.theta_delta_phi, geom.theta_torsion)


@_report_of(("first_bianchi_with_torsion", "id:first-bianchi-skew"),
            ("curvature_six_term_symmetry", "id:six-term-curvature"),
            ("reversed_first_bianchi", "id:reversed-first-bianchi"))
def check_bianchi_family(geom: Geometry, tol: float = DEFAULT_TOL):
    R, dt, sig = geom.curv, geom.dtorsion.dense, geom.sigma.dense
    cyc = geom.bianchi_cycle
    rcyc = R.transpose(1, 2, 3, 0) + R.transpose(3, 1, 2, 0) + R.transpose(2, 3, 1, 0)
    nt_last = geom.nabla_t.transpose(1, 2, 3, 0)
    yield "first_bianchi_with_torsion", _maxabs(cyc - (dt - sig + nt_last))
    yield "curvature_six_term_symmetry", _maxabs(cyc - rcyc - (1.5 * dt - sig))
    yield "reversed_first_bianchi", _maxabs(rcyc - (-0.5 * dt + nt_last))


@_report_of(("dT_five_term_expansion", "id:dT-covariant-expansion"),
            ("lc_vs_torsion_derivative", "id:dT-derivative-difference"))
def check_dt_expansion(geom: Geometry, tol: float = DEFAULT_TOL):
    """dT = nabla T's five-term expansion + 2 sigma_T, and nabla^g T - nabla T = sigma_T / 2."""
    nt, sig = geom.nabla_t, geom.sigma.dense
    cyclic = nt + nt.transpose(2, 0, 1, 3) + nt.transpose(1, 2, 0, 3)
    expansion = cyclic + 2.0 * sig - nt.transpose(1, 2, 3, 0)
    yield "dT_five_term_expansion", _maxabs(geom.dtorsion.dense - expansion)
    yield "lc_vs_torsion_derivative", _maxabs(geom.nabla_t_lc - nt - 0.5 * sig)


@_report_of(*((i, "id:ricci-comparison") for i in (
    "ricci_difference_riemannian", "scalar_difference_riemannian",
    "ricci_antisymmetry_codifferential")))
def check_ricci_relations(geom: Geometry, tol: float = DEFAULT_TOL):
    yield "ricci_difference_riemannian", _maxabs(
        geom.ric_lc - (geom.ric + 0.5 * geom.delta_torsion.dense + 0.25 * geom.t_square))
    yield "scalar_difference_riemannian", abs(
        geom.scal_lc - (geom.scal + 0.25 * geom.torsion_norm_sq))
    yield "ricci_antisymmetry_codifferential", _maxabs(geom.ric - geom.ric.T
                                                       + geom.delta_torsion.dense)


@_report_of(("ricci_from_dT_and_lee", "id:torsion-ricci-formula"),
            ("scalar_from_lee", "id:torsion-scalar-formula"),
            ("riemannian_scalar_formula", "id:riemannian-scalar-formula"),
            ("quartic_contraction_norms", "id:quartic-contraction-norms"),
            ("dT_contraction_chain", "id:dT-contraction-chain"),
            ("ricci_double_contraction", "id:torsion-ricci-formula"))
def check_spin7_ricci(geom: Geometry, tol: float = DEFAULT_TOL):
    phi = geom.structure.phi
    dt_tr = geom.dt_phi_trace
    ntheta = geom.nabla_theta
    tn, thn = geom.torsion_norm_sq, geom.theta_norm_sq
    dth = geom.delta_theta
    n48 = geom.delta_phi48_norm_sq

    yield "ricci_from_dT_and_lee", _maxabs(geom.ric + (1.0 / 12.0) * dt_tr + (7.0 / 6.0) * ntheta)
    yield "scalar_from_lee", max(abs(geom.scal - (3.5 * dth + (49.0 / 18.0) * thn - tn / 3.0)),
                                 abs(geom.scal - (3.5 * dth + (7.0 / 3.0) * thn - n48 / 3.0)))
    yield "riemannian_scalar_formula", max(
        abs(geom.scal_lc - (3.5 * dth + (49.0 / 18.0) * thn - tn / 12.0)),
        abs(geom.scal_lc - (3.5 * dth + (21.0 / 8.0) * thn - n48 / 12.0)))

    sig_phi = full_contraction(geom.sigma, phi)
    p4, t3 = phi.dense, geom.torsion.dense
    mid = 3.0 * float(np.vdot(t3, p4.reshape(64, 64) @ t3.reshape(64, 8)))
    yield "quartic_contraction_norms", max(abs(sig_phi - mid),
                                           abs(sig_phi - (2.0 * tn - (49.0 / 3.0) * thn)))

    dt_phi = full_contraction(geom.dtorsion, phi)
    nt_phi = float(np.einsum("jabc,jabc->", geom.nabla_t, p4))
    yield "dT_contraction_chain", max(
        abs(dt_phi - (4.0 * nt_phi + 2.0 * sig_phi)),
        abs(dt_phi - (28.0 * float(np.trace(ntheta)) + 4.0 * tn - (98.0 / 3.0) * thn)),
        abs(dt_phi - (-28.0 * dth + 4.0 * n48 - 28.0 * thn)),
    )
    yield "ricci_double_contraction", max(
        _maxabs(2.0 * geom.ric + geom.phi_trace(geom.curv)),
        _maxabs(2.0 * geom.ric + (1.0 / 6.0) * dt_tr + (7.0 / 3.0) * ntheta),
    )


@_report_of(("riemannian_first_bianchi", "id:riemannian-first-bianchi"),
            ("parallel_type_torsion_relations", "id:riemannian-first-bianchi"),
            ("ricci_flat_under_first_bianchi", "id:first-bianchi-ricci-flat", "first_bianchi"))
def check_riemannian_bianchi(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    dt, sig, nt = geom.dtorsion.dense, geom.sigma.dense, geom.nabla_t
    yield "riemannian_first_bianchi", _read(geom, "bianchi_cycle", readings)
    yield "parallel_type_torsion_relations", max(_maxabs(dt + 2.0 * nt),
                                                 _maxabs(dt - (2.0 / 3.0) * sig))
    yield "ricci_flat_under_first_bianchi", _read(geom, "ric", readings)


@_report_of(*((i, "id:pair-symmetric-curvature") for i in (
    "nabla_T_is_four_form", "curvature_pair_symmetry", "dT_vs_lc_derivative",
    "pair_symmetry_equivalence")))
def check_s2lambda2(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    nt = geom.nabla_t
    four_form = _maxabs(nt + nt.transpose(1, 0, 2, 3))
    pair = _read(geom, "pair_asymmetry", readings)
    dt_rel = _maxabs(geom.dtorsion.dense - 4.0 * geom.nabla_t_lc)
    yield "nabla_T_is_four_form", four_form
    yield "curvature_pair_symmetry", pair
    yield "dT_vs_lc_derivative", dt_rel
    yield "pair_symmetry_equivalence", [four_form <= tol, pair <= tol, dt_rel <= tol]


@_report_of(*((i, "id:closed-torsion", "closed_torsion") for i in (
    "ricci_from_lee_derivative", "lee_exterior_in_21part", "ricci_flat", "lee_parallel",
    "scalar_flat", "lee_coclosed", "torsion_coclosed", "closed_chain_agreement")))
def check_closed_torsion(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    ric0 = _read(geom, "ric", readings)
    nth0 = _maxabs(geom.nabla_theta)
    scal0 = abs(geom.scal)
    dth0 = abs(geom.delta_theta)
    yield "ricci_from_lee_derivative", _maxabs(geom.ric + (7.0 / 6.0) * geom.nabla_theta)
    yield "lee_exterior_in_21part", _read(geom, "dtheta7", readings)
    yield "ricci_flat", ric0
    yield "lee_parallel", nth0
    yield "scalar_flat", scal0
    yield "lee_coclosed", dth0
    yield "torsion_coclosed", (_read(geom, "delta_torsion", readings), "harmonic together with dT = 0")
    # the norm of T and the Riemannian scalar are frame constants on an
    # invariant geometry, so the six-way equivalence reduces to these four
    yield "closed_chain_agreement", [ric0 <= tol, nth0 <= tol, scal0 <= tol, dth0 <= tol]


@_report_of(("codifferential_of_torsion_formula", "id:torsion-codifferential"),
            *((i, "id:symmetric-ricci", "symmetric_ricci") for i in (
                "lee_nabla_exterior_formula", "lee_nabla_exterior_in_7part",
                "symmetric_ricci_equivalence")))
def check_symmetric_ricci(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    phi = geom.structure.phi

    # codifferential of the torsion from the Lee form, always applicable
    rhs = (7.0 / 6.0) * (contract_into(geom.dtheta, phi)
                         - geom.theta_delta_phi)
    yield "codifferential_of_torsion_formula", residual(geom.delta_torsion, rhs)

    nth = geom.nabla_theta
    dnth = KForm.from_array(nth - nth.T)  # exactly skew
    th_t = geom.theta_torsion
    # contract_into carries 1/2!: th_t_phi = (1/2) (theta . T)_ab phi_ab..
    th_t_phi = contract_into(th_t, phi)
    yield "lee_nabla_exterior_formula", max(
        residual(dnth, (-1.0 / 3.0) * th_t + (1.0 / 3.0) * th_t_phi),
        residual(dnth, (-1.0 / 3.0) * contract_into(dnth, phi)),
    )
    yield "lee_nabla_exterior_in_7part", project_lambda2(dnth, geom.structure)[1].max_abs()
    yield "symmetric_ricci_equivalence", [dnth.max_abs() <= tol,
                                          2.0 * residual(th_t_phi, th_t) <= tol,
                                          _read(geom, "dtheta7", readings) <= tol]


@_report_of(("second_bianchi_contracted", "id:second-bianchi"),
            ("divergence_of_codifferential", "id:codifferential-divergence"))
def check_second_bianchi(geom: Geometry, tol: float = DEFAULT_TOL):
    nric = covariant_derivative(geom.conn, geom.ric)
    div_ric = np.einsum("iji->j", nric)
    # delta T_ab T_abj, and T_abc dT_jabc / 6 = -(T . dT)_j
    dt_t = 2.0 * contract_into(geom.delta_torsion, geom.torsion).vec
    t_dt = -contract_into(geom.torsion, geom.dtorsion).vec
    # frame constants: the scalar and torsion-norm gradients vanish identically
    e1 = _maxabs(-2.0 * div_ric + dt_t + t_dt)
    ndt = covariant_derivative(geom.conn, geom.delta_torsion.dense)
    iii = _maxabs(np.einsum("iij->j", ndt) - 0.5 * dt_t)
    # each trace reads only its table's diagonal, so an overflow off the diagonal would
    # drop out and leave a finite residual for inputs past double range: report nan
    yield "second_bianchi_contracted", e1 if np.all(np.isfinite(nric)) else math.nan
    yield "divergence_of_codifferential", iii if np.all(np.isfinite(ndt)) else math.nan


@_report_of(*((i, "id:parallel-torsion-theorems", "pair_symmetry") for i in (
    "ricci_quartic_balance", "lc_parallel_torsion", "parallel_torsion",
    "lee_parallel_under_pair_symmetry", "quartic_lee_contractions")))
def check_main_theorems(geom: Geometry, tol: float = DEFAULT_TOL):
    """Consistency checks for the parallel-torsion theorems.

    When the exterior derivative of the Lee form lies in the 21-part and the
    curvature is pair-symmetric with zero Ricci tensor, the torsion must be
    parallel for both connections and the Lee-form contractions vanish.
    """
    # X_iabc phi_jabc throughout; the quartic terms read X_iabc phi_abcj, its negative
    sig_tr = geom.phi_trace(geom.sigma.dense)
    ntheta = geom.nabla_theta
    yield "ricci_quartic_balance", _maxabs(geom.ric + 3.5 * ntheta + (1.0 / 6.0) * sig_tr)
    yield "lc_parallel_torsion", _maxabs(geom.nabla_t_lc)
    yield "parallel_torsion", _maxabs(geom.nabla_t)
    yield "lee_parallel_under_pair_symmetry", _maxabs(ntheta)
    yield "quartic_lee_contractions", max(
        _maxabs(geom.phi_trace(geom.nabla_t) + 7.0 * ntheta),
        _maxabs(sig_tr - 21.0 * ntheta),
        _maxabs(geom.dt_phi_trace - 14.0 * ntheta),
    )


@_report_of(*((i, "id:steady-soliton", "closed_torsion") for i in (
    "soliton_vector_parallel", "soliton_ricci_hessian", "soliton_torsion_gradient",
    "soliton_lee_transport", "soliton_metric_invariance", "soliton_structure_invariance")))
def check_soliton(geom: Geometry, soliton: SolitonData | None = None, tol: float = DEFAULT_TOL):
    """Steady gradient soliton battery for closed torsion.

    The default gradient is the zero covector (constant potential), the
    invariant-geometry case.
    """
    if soliton is None:
        soliton = SolitonData.constant_potential()
    df = geom.frame.T @ soliton.f_gradient  # df in the frame the geometry is built in
    v = (7.0 / 6.0) * geom.theta.vec - df
    v_form = KForm.covector(v)
    notes = "constant potential (df = 0)" if not np.any(df) else "user-supplied gradient"
    yield "soliton_vector_parallel", (_maxabs(covariant_derivative(geom.conn, v)), notes)
    yield "soliton_ricci_hessian", _maxabs(geom.ric + covariant_derivative(geom.conn, df))
    yield "soliton_torsion_gradient", residual(geom.delta_torsion,
                                               -1.0 * interior_product(df, geom.torsion))
    yield "soliton_lee_transport", residual((7.0 / 6.0) * geom.dtheta,
                                            interior_product(v_form, geom.torsion))
    lie_g = covariant_derivative(geom.lc, v)
    yield "soliton_metric_invariance", _maxabs(lie_g + lie_g.T)
    lie_phi = ce_differential(interior_product(v_form, geom.structure.phi), geom.algebra) \
        + interior_product(v_form, geom.dphi)
    yield "soliton_structure_invariance", lie_phi.max_abs()


def classify_fernandez(geom: Geometry, tol: float = DEFAULT_TOL, readings=None) -> list[str]:
    """Structure classes by defining residual, plus the derived labels.

    The conformally-parallel class is only reported when it holds
    nontrivially (nonzero d phi), so the flat baseline reads as
    closed + balanced rather than everything at once; "strong" reads the gate.
    """
    dphi = geom.dphi
    w0 = dphi.max_abs() <= tol
    holds = {
        "W_0": w0,
        "W_1": geom.theta.max_abs() <= tol,
        "W_2": residual(dphi, geom.theta_wedge_phi) <= tol and not w0,
        "locally_conformally_balanced": geom.dtheta.max_abs() <= tol,
        "strong": _holds(geom, "closed_torsion", {} if readings is None else readings, tol),
    }
    return [label for label in FERNANDEZ_LABELS if holds[label]]


@_report_of(("fernandez_classes", "id:structure-classes"))
def check_fernandez(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    yield "fernandez_classes", (0.0, ",".join(classify_fernandez(geom, tol, readings)) or "generic")


@_report_of(("bi_structure_opposite_torsion", "id:bi-structure"),
            ("bi_structure_mirror_closed", "id:bi-structure", "closed_torsion"))
def check_bi_spin7(geom: Geometry, tol: float = DEFAULT_TOL, *, readings=None):
    # the mirror c -> -c negates d exactly and T linearly: its T is -T and its dT is dT
    t_mirror = -1.0 * geom.torsion
    yield "bi_structure_opposite_torsion", residual(t_mirror, t_mirror)
    yield "bi_structure_mirror_closed", _read(geom, "dtorsion", readings)


# The report order: every report lists its entries group by group in this order.
CHECKS = (check_structure, check_algebra, check_connection_contracts, check_lee_and_torsion,
          check_bianchi_family, check_dt_expansion, check_ricci_relations, check_spin7_ricci,
          check_riemannian_bianchi, check_s2lambda2, check_closed_torsion, check_symmetric_ricci,
          check_second_bianchi, check_main_theorems, check_soliton, check_fernandez,
          check_bi_spin7)

# The catalog: every report's rows (check_id, anchor, gate or None), in report order.
ENTRIES = tuple(row for group in CHECKS for row in group.rows)


def full_report(geom: Geometry, soliton: SolitonData | None = None,
                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Every group of ``CHECKS`` in order; identical inputs give identical reports."""
    entries, readings = [], {}
    for group in CHECKS:
        # looked up by name, so a wrapper set on the module (perfbench's tracer) sees it
        check = globals()[group.__name__]
        args = (soliton,) if check is check_soliton else ()
        entries += check(geom, *args, tol=tol, readings=readings).entries
    return VerificationReport(geom.name, entries)
