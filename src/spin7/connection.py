"""Connections, curvature and torsion on invariant frames.

Connection coefficients are stored as gamma[i, j, k] = Gamma^k_{ij} with
nabla_{e_i} e_j = sum_k Gamma^k_{ij} e_k.  Curvature follows
R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z, lowered in the last slot,
and the Ricci trace is Ric(X,Y) = sum_a R(e_a, X, Y, e_a).

All tensors are invariant (constant frame components), so covariant
derivatives reduce to the connection-coefficient corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forms import (
    DIM,
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    hodge_star,
    interior_product,
    raise_slots,
    residual,
    wedge,
)
from .liealgebra import LieAlgebra8, ce_differential
from .report import VerificationReport, entry
from .structure import Spin7Form, lambda3_covector


@dataclass(frozen=True)
class FrameConnection:
    gamma: np.ndarray  # gamma[i, j, k] = Gamma^k_{ij}
    metric: FrameMetric

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != (DIM, DIM, DIM):
            raise ValueError(f"connection table must be {DIM}^3, got {gamma.shape}")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    @cached_property
    def gamma_lowered(self) -> np.ndarray:
        """Gamma_{ijk} = Gamma^m_{ij} g_{mk}."""
        out = np.einsum("ijm,mk->ijk", self.gamma, self.metric.g)
        out.setflags(write=False)
        return out

    def metric_compat_residual(self) -> float:
        gl = self.gamma_lowered
        return float(np.max(np.abs(gl + np.einsum("ijk->ikj", gl))))


@dataclass(frozen=True)
class CurvatureTensor:
    R: np.ndarray  # R[i, j, k, l] = R_{ijkl}, all indices lowered

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (DIM,) * 4:
            raise ValueError(f"curvature table must be {DIM}^4, got {R.shape}")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)

    def antisymmetry_residual(self) -> float:
        R = self.R
        r1 = np.max(np.abs(R + np.einsum("ijkl->jikl", R)))
        r2 = np.max(np.abs(R + np.einsum("ijkl->ijlk", R)))
        return float(max(r1, r2))


def levi_civita(alg: LieAlgebra8, m: FrameMetric) -> FrameConnection:
    """Koszul formula on an invariant frame with constant metric table."""
    cl = alg.lowered(m.g)
    low = 0.5 * (cl - np.einsum("jki->ijk", cl) + np.einsum("kij->ijk", cl))
    return FrameConnection(raise_slots(low, m, (2,)), m)


def connection_from_torsion(lc: FrameConnection, torsion: KForm) -> FrameConnection:
    """Metric connection with prescribed totally skew torsion 3-form."""
    gamma = lc.gamma + 0.5 * raise_slots(torsion.to_array(), lc.metric, (2,))
    return FrameConnection(gamma, lc.metric)


def torsion_tensor(conn: FrameConnection, alg: LieAlgebra8) -> np.ndarray:
    """T_{ijk} of nabla_X Y - nabla_Y X - [X, Y], lowered in the last slot."""
    t_up = conn.gamma - np.einsum("ijk->jik", conn.gamma) - alg.c
    return np.einsum("ijm,mk->ijk", t_up, conn.metric.g)


def covariant_derivative(conn: FrameConnection, t: np.ndarray) -> np.ndarray:
    """(nabla_i t)_{j1..jr} for an invariant covariant tensor, rank <= 4."""
    t = np.asarray(t, dtype=float)
    rank = t.ndim
    if rank == 0:
        return np.zeros(DIM)
    if rank > 4:
        raise ValueError(f"rank {rank} not supported")
    g = conn.gamma
    if rank == 1:
        return -np.einsum("ijm,m->ij", g, t)
    if rank == 2:
        return -np.einsum("ijm,mk->ijk", g, t) - np.einsum("ikm,jm->ijk", g, t)
    if rank == 3:
        return (
            -np.einsum("ijm,mkl->ijkl", g, t)
            - np.einsum("ikm,jml->ijkl", g, t)
            - np.einsum("ilm,jkm->ijkl", g, t)
        )
    return (
        -np.einsum("ijm,mklp->ijklp", g, t)
        - np.einsum("ikm,jmlp->ijklp", g, t)
        - np.einsum("ilm,jkmp->ijklp", g, t)
        - np.einsum("ipm,jklm->ijklp", g, t)
    )


def curvature(conn: FrameConnection, alg: LieAlgebra8) -> CurvatureTensor:
    g = conn.gamma
    r_up = (
        np.einsum("jkm,iml->ijkl", g, g)
        - np.einsum("ikm,jml->ijkl", g, g)
        - np.einsum("ijm,mkl->ijkl", alg.c, g)
    )
    return CurvatureTensor(np.einsum("ijkm,ml->ijkl", r_up, conn.metric.g))


def ricci(curv: CurvatureTensor, m: FrameMetric) -> np.ndarray:
    """Ric_{jk} = g^{ab} R_{ajkb}."""
    return np.einsum("ajkb,ab->jk", curv.R, m.inv)


def scalar_curv(ric: np.ndarray, m: FrameMetric) -> float:
    return float(np.einsum("jk,jk->", ric, m.inv))


# ---------------------------------------------------------------------------
# codifferential

def codifferential_via_star(beta: KForm, alg: LieAlgebra8,
                            m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """delta = -*d* on every degree in dimension eight."""
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    return -1.0 * hodge_star(ce_differential(hodge_star(beta, m), alg), m)


def codifferential(beta: KForm, alg: LieAlgebra8, conn_lc: FrameConnection) -> KForm:
    """Divergence form: (delta b)_J = -g^{ab} (nabla^g_a b)_{bJ}."""
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    nb = covariant_derivative(conn_lc, beta.to_array())
    out = -np.einsum("ab,ab...->...", conn_lc.metric.inv, nb)
    return KForm.from_array(out)


def codifferential_paths_residual(beta: KForm, alg: LieAlgebra8,
                                  conn_lc: FrameConnection) -> float:
    """Agreement of the divergence and -*d* computations of delta."""
    return residual(
        codifferential(beta, alg, conn_lc),
        codifferential_via_star(beta, alg, conn_lc.metric),
    )


# ---------------------------------------------------------------------------
# torsion-specific forms

def sigma_t(torsion: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """The quartic torsion 4-form sigma_xyzv = S_xyz T_xya T_zv^a.

    S_xyz is the cyclic sum over (x, y, z) and slot 2 of the second T is
    raised with g; on an orthonormal frame this is
    (1/2) sum_j (e_j . T) ^ (e_j . T).
    """
    if torsion.degree != 3:
        raise ValueError(f"torsion must be a 3-form, got degree {torsion.degree}")
    t3 = torsion.to_array()
    s = np.einsum("xya,zva->xyzv", t3, raise_slots(t3, m, (2,)))
    return KForm.from_array(s + np.einsum("yzxv->xyzv", s) + np.einsum("zxyv->xyzv", s))


def phi_derivatives(structure: Spin7Form, alg: LieAlgebra8) -> tuple[KForm, KForm]:
    """d(phi) and d(*phi), the two derivatives the Lee-form and torsion routes read."""
    phi = structure.phi
    return ce_differential(phi, alg), ce_differential(hodge_star(phi, structure.metric), alg)


def lee_form(structure: Spin7Form, alg: LieAlgebra8) -> KForm:
    """The Lee 1-form of the structure: (1/7) (delta phi) . phi.

    Computed from the codifferential route; ``lee_form_routes`` exposes all
    three equivalent expressions for cross-checking.
    """
    return lee_form_routes(structure, *phi_derivatives(structure, alg))[2]


def lee_form_routes(structure: Spin7Form, dphi: KForm,
                    d_star_phi: KForm) -> tuple[KForm, KForm, KForm]:
    """Three expressions for the Lee form, which must agree:

    -(1/7) * ( *d(phi) ^ phi ),  (1/7) * ( delta(phi) ^ phi ),
    (1/7) (delta phi) . phi  (three-index contraction),
    given d(phi) and d(*phi) (see ``phi_derivatives``).
    """
    m = structure.metric
    phi = structure.phi
    via_d = (-1.0 / 7.0) * hodge_star(wedge(hodge_star(dphi, m), phi), m)
    delta_phi = -1.0 * hodge_star(d_star_phi, m)
    via_delta = (1.0 / 7.0) * hodge_star(wedge(delta_phi, phi), m)
    via_contraction = -1.0 * lambda3_covector(delta_phi, structure)
    return via_d, via_delta, via_contraction


def spin7_torsion(structure: Spin7Form, alg: LieAlgebra8) -> KForm:
    """Torsion 3-form of the unique metric connection preserving the structure.

    T = -*d(phi) + (7/6) * (theta ^ phi); the equivalent route
    delta(phi) + (7/6) theta . phi is exposed by ``spin7_torsion_routes``.
    """
    derivatives = phi_derivatives(structure, alg)
    theta = lee_form_routes(structure, *derivatives)[2]
    return spin7_torsion_routes(structure, *derivatives, theta)[0]


def spin7_torsion_routes(structure: Spin7Form, dphi: KForm, d_star_phi: KForm,
                         theta: KForm) -> tuple[KForm, KForm]:
    """The two torsion expressions of ``spin7_torsion``, given d(phi), d(*phi) and the Lee form."""
    m = structure.metric
    phi = structure.phi
    via_star = -1.0 * hodge_star(dphi, m) + (7.0 / 6.0) * hodge_star(wedge(theta, phi), m)
    delta_phi = -1.0 * hodge_star(d_star_phi, m)
    via_delta = delta_phi + (7.0 / 6.0) * interior_product(theta, phi, m)
    return via_star, via_delta


def dt_via_expansion(torsion: KForm, conn: FrameConnection,
                     alg: LieAlgebra8, tol: float = 1e-9) -> VerificationReport:
    """Check the two covariant expansions of dT against the invariant d.

    First entry: the five-term expansion of dT through the torsion
    connection plus twice the quartic 4-form.  Second entry: the difference
    of Levi-Civita and torsion covariant derivatives of T equals half the
    quartic 4-form.
    """
    m = conn.metric
    dt = ce_differential(torsion, alg).to_array()
    t3 = torsion.to_array()
    nt = covariant_derivative(conn, t3)
    sig = sigma_t(torsion, m).to_array()
    expansion = (
        nt
        + np.einsum("yzxv->xyzv", nt)
        + np.einsum("zxyv->xyzv", nt)
        + 2.0 * sig
        - np.einsum("vxyz->xyzv", nt)
    )
    rep = VerificationReport("exterior-derivative-expansions")
    rep.add(entry("dT_five_term_expansion", "id:dT-covariant-expansion",
                  float(np.max(np.abs(dt - expansion))), tol))
    lc = FrameConnection(conn.gamma - 0.5 * raise_slots(t3, m, (2,)), m)
    nt_g = covariant_derivative(lc, t3)
    rep.add(entry("lc_vs_torsion_derivative", "id:dT-derivative-difference",
                  float(np.max(np.abs(nt_g - nt - 0.5 * sig))), tol))
    return rep
