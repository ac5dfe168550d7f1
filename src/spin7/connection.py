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
    wedge,
)
from .liealgebra import LieAlgebra8, ce_differential
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


def connection_from_torsion(lc: FrameConnection, t_up: np.ndarray) -> FrameConnection:
    """Metric connection with prescribed totally skew torsion T_ij^k (slot 2 raised)."""
    return FrameConnection(lc.gamma + 0.5 * t_up, lc.metric)


def torsion_tensor(conn: FrameConnection, alg: LieAlgebra8) -> np.ndarray:
    """T_{ijk} of nabla_X Y - nabla_Y X - [X, Y], lowered in the last slot."""
    t_up = conn.gamma - np.einsum("ijk->jik", conn.gamma) - alg.c
    return np.einsum("ijm,mk->ijk", t_up, conn.metric.g)


def covariant_derivative(conn: FrameConnection, t: np.ndarray) -> np.ndarray:
    """(nabla_i t)_{j1..jr} of an invariant covariant tensor of any rank.

    -sum_s Gamma^m_{i j_s} t_{j1..m..jr}: one tensordot per slot s, the
    same idiom as ``raise_slots``.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((DIM,) * (t.ndim + 1))
    for s in range(t.ndim):
        out -= np.moveaxis(np.tensordot(conn.gamma, t, axes=([2], [s])), 1, 1 + s)
    return out


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


# ---------------------------------------------------------------------------
# torsion-specific forms

def sigma_t(t3: np.ndarray, t_up: np.ndarray) -> KForm:
    """The quartic torsion 4-form sigma_xyzv = S_xyz T_xya T_zv^a.

    S_xyz is the cyclic sum over (x, y, z); ``t3`` is T_xyz and ``t_up`` is
    T_xy^a, slot 2 raised with g.  On an orthonormal frame this is
    (1/2) sum_j (e_j . T) ^ (e_j . T).
    """
    s = np.einsum("xya,zva->xyzv", t3, t_up)
    return KForm.from_array(s + np.einsum("yzxv->xyzv", s) + np.einsum("zxyv->xyzv", s))


def phi_derivatives(structure: Spin7Form, alg: LieAlgebra8) -> tuple[KForm, KForm, KForm]:
    """d(phi), *d(phi) and delta(phi) = -*d*(phi): what the Lee-form and torsion routes read."""
    dphi = ce_differential(structure.phi, alg)
    return (dphi, hodge_star(dphi, structure.metric),
            codifferential_via_star(structure.phi, alg, structure.metric))


def lee_form(structure: Spin7Form, alg: LieAlgebra8) -> KForm:
    """The Lee 1-form of the structure: (1/7) (delta phi) . phi.

    Computed from the codifferential route; ``lee_form_routes`` exposes all
    three equivalent expressions for cross-checking.
    """
    return lee_form_routes(structure, *phi_derivatives(structure, alg)[1:])[2]


def lee_form_routes(structure: Spin7Form, star_dphi: KForm,
                    delta_phi: KForm) -> tuple[KForm, KForm, KForm]:
    """Three expressions for the Lee form, which must agree:

    -(1/7) * ( *d(phi) ^ phi ),  (1/7) * ( delta(phi) ^ phi ),
    (1/7) (delta phi) . phi  (three-index contraction),
    given *d(phi) and delta(phi) = -*d*(phi) (see ``phi_derivatives``).
    """
    m = structure.metric
    phi = structure.phi
    via_d = (-1.0 / 7.0) * hodge_star(wedge(star_dphi, phi), m)
    via_delta = (1.0 / 7.0) * hodge_star(wedge(delta_phi, phi), m)
    via_contraction = -1.0 * lambda3_covector(delta_phi, structure)
    return via_d, via_delta, via_contraction


def spin7_torsion(structure: Spin7Form, alg: LieAlgebra8) -> KForm:
    """Torsion 3-form of the unique metric connection preserving the structure.

    T = -*d(phi) + (7/6) * (theta ^ phi); the equivalent route
    delta(phi) + (7/6) theta . phi is exposed by ``spin7_torsion_routes``.
    """
    _, star_dphi, delta_phi = phi_derivatives(structure, alg)
    theta = lee_form_routes(structure, star_dphi, delta_phi)[2]
    return spin7_torsion_routes(structure, star_dphi, delta_phi, theta)[0]


def spin7_torsion_routes(structure: Spin7Form, star_dphi: KForm, delta_phi: KForm,
                         theta: KForm) -> tuple[KForm, KForm]:
    """The two torsion expressions of ``spin7_torsion``, given *d(phi), delta(phi) and the Lee form."""
    m = structure.metric
    phi = structure.phi
    via_star = -1.0 * star_dphi + (7.0 / 6.0) * hodge_star(wedge(theta, phi), m)
    via_delta = delta_phi + (7.0 / 6.0) * interior_product(theta, phi, m)
    return via_star, via_delta
