"""Connections, curvature and torsion on invariant frames.

Connection coefficients are stored as gamma[i, j, k] = Gamma^k_{ij} with
nabla_{e_i} e_j = sum_k Gamma^k_{ij} e_k.  Curvature follows
R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z, lowered in the last slot,
and the Ricci trace is Ric(X,Y) = sum_a R(e_a, X, Y, e_a).

All tensors are invariant (constant frame components), so covariant
derivatives reduce to the connection-coefficient corrections.  Everything
here takes the frame to be orthonormal (``Geometry.build`` maps into one
first) and takes no metric: stars and contractions are at g = I, and the
Lee-form and torsion routes refuse, through ``lambda3_covector``, a
structure whose metric is not the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DIM, KForm, hodge_star, interior_product, wedge
from .liealgebra import LieAlgebra8, ce_differential
from .structure import Spin7Form, lambda3_covector


@dataclass(frozen=True)
class FrameConnection:
    gamma: np.ndarray  # gamma[i, j, k] = Gamma^k_{ij}

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != (DIM, DIM, DIM):
            raise ValueError(f"connection table must be {DIM}^3, got {gamma.shape}")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    def metric_compat_residual(self) -> float:
        return float(np.max(np.abs(self.gamma + np.einsum("ijk->ikj", self.gamma))))


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


def levi_civita(alg: LieAlgebra8) -> FrameConnection:
    """Koszul formula on an orthonormal invariant frame."""
    c = alg.c
    return FrameConnection(0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c)))


def connection_from_torsion(lc: FrameConnection, t3: np.ndarray) -> FrameConnection:
    """Metric connection with prescribed totally skew torsion T_ijk."""
    return FrameConnection(lc.gamma + 0.5 * t3)


def torsion_tensor(conn: FrameConnection, alg: LieAlgebra8) -> np.ndarray:
    """T_{ijk} of nabla_X Y - nabla_Y X - [X, Y]."""
    return conn.gamma - np.einsum("ijk->jik", conn.gamma) - alg.c


def covariant_derivative(conn: FrameConnection, t: np.ndarray) -> np.ndarray:
    """(nabla_i t)_{j1..jr} of an invariant covariant tensor of any rank.

    -sum_s Gamma^m_{i j_s} t_{j1..m..jr}: per slot s, one (64, 8) x (8, 8^(r-1))
    matmul of Gamma_{(i j), m} against t with slot s moved first.
    """
    t = np.asarray(t, dtype=float)
    gamma = conn.gamma.reshape(DIM * DIM, DIM)
    out = np.zeros((DIM,) * (t.ndim + 1))
    for s in range(t.ndim):
        prod = gamma @ t.swapaxes(0, s).reshape(DIM, -1)  # (i, j_s, t's slots with 0 at s)
        out -= prod.reshape(out.shape).swapaxes(1, 1 + s)
    return out


def curvature(conn: FrameConnection, alg: LieAlgebra8) -> CurvatureTensor:
    """R_ijkl by (64, 8) x (8, 64) matmuls; the second product is the first with i, j swapped."""
    g = conn.gamma
    first = g.reshape(DIM * DIM, DIM) @ g.transpose(1, 0, 2).reshape(DIM, -1)  # (jk, il)
    first = first.reshape((DIM,) * 4).transpose(2, 0, 1, 3)
    bracket = (alg.c.reshape(DIM * DIM, DIM) @ g.reshape(DIM, -1)).reshape((DIM,) * 4)
    return CurvatureTensor(first - first.transpose(1, 0, 2, 3) - bracket)


def ricci(curv: CurvatureTensor) -> np.ndarray:
    """Ric_{jk} = R_{ajka}, traced over a."""
    return np.trace(curv.R, axis1=0, axis2=3)


def scalar_curv(ric: np.ndarray) -> float:
    return float(np.trace(ric))


# ---------------------------------------------------------------------------
# codifferential

def codifferential_via_star(beta: KForm, alg: LieAlgebra8) -> KForm:
    """delta = -*d* on every degree in dimension eight."""
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    return -1.0 * hodge_star(ce_differential(hodge_star(beta), alg))


def codifferential(beta: KForm, conn_lc: FrameConnection) -> KForm:
    """Divergence form: (delta b)_J = -(nabla^g_a b)_{aJ}, traced before it is summed.

    With W_{ajm} = Gamma^m_{aj}, slot 0 of b gives v^m b_{mJ} (v^m = W_{aam})
    and every other slot s gives W_{a j_s m} b_{a..m..}, one
    (8, 64) x (64, 8^(k-2)) matmul with slots 0 and s of b first.
    """
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    b = beta.to_array()
    w = conn_lc.gamma
    out = (np.trace(w) @ b.reshape(DIM, -1)).reshape(b.shape[1:])
    w_jbm = w.transpose(1, 0, 2).reshape(DIM, DIM * DIM)
    for s in range(1, b.ndim):
        prod = w_jbm @ b.swapaxes(1, s).reshape(DIM * DIM, -1)  # (j_s, b's slots with 1 at s)
        out += prod.reshape(out.shape).swapaxes(0, s - 1)
    return KForm.from_array(out)


# ---------------------------------------------------------------------------
# torsion-specific forms

def sigma_t(t3: np.ndarray) -> KForm:
    """The quartic torsion 4-form sigma_xyzv = S_xyz T_xya T_zva of ``t3`` = T_xyz.

    S_xyz is the cyclic sum over (x, y, z); this is (1/2) sum_j (e_j . T) ^ (e_j . T).
    """
    s = np.einsum("xya,zva->xyzv", t3, t3)
    return KForm.from_array(s + np.einsum("yzxv->xyzv", s) + np.einsum("zxyv->xyzv", s))


def phi_derivatives(structure: Spin7Form, alg: LieAlgebra8) -> tuple[KForm, KForm, KForm]:
    """d(phi), *d(phi) and delta(phi) = -*d*(phi): what the Lee-form and torsion routes read."""
    dphi = ce_differential(structure.phi, alg)
    return dphi, hodge_star(dphi), codifferential_via_star(structure.phi, alg)


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
    phi = structure.phi
    via_d = (-1.0 / 7.0) * hodge_star(wedge(star_dphi, phi))
    via_delta = (1.0 / 7.0) * hodge_star(wedge(delta_phi, phi))
    via_contraction = -1.0 * lambda3_covector(delta_phi, structure)
    return via_d, via_delta, via_contraction


def spin7_torsion(structure: Spin7Form, alg: LieAlgebra8) -> KForm:
    """Torsion 3-form of the unique metric connection preserving the structure.

    T = -*d(phi) + (7/6) * (theta ^ phi), the first of ``spin7_torsion_routes``.
    """
    _, star_dphi, delta_phi = phi_derivatives(structure, alg)
    theta = -1.0 * lambda3_covector(delta_phi, structure)
    return spin7_torsion_routes(structure, star_dphi, delta_phi, theta)[0]


def spin7_torsion_routes(structure: Spin7Form, star_dphi: KForm, delta_phi: KForm,
                         theta: KForm) -> tuple[KForm, KForm]:
    """The two torsion expressions of ``spin7_torsion``, given *d(phi), delta(phi) and the Lee form."""
    phi = structure.phi
    via_star = -1.0 * star_dphi + (7.0 / 6.0) * hodge_star(wedge(theta, phi))
    via_delta = delta_phi + (7.0 / 6.0) * interior_product(theta, phi)
    return via_star, via_delta
