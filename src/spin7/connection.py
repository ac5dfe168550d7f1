"""Connections, curvature and torsion on invariant frames.

A connection is the plain (8, 8, 8) array gamma[i, j, k] = Gamma^k_{ij} with
nabla_{e_i} e_j = sum_k Gamma^k_{ij} e_k.  Curvature is the plain (8, 8, 8, 8)
array R[i, j, k, l] of R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_{[X,Y]}Z, lowered
in the last slot, and the Ricci trace is Ric(X,Y) = sum_a R(e_a, X, Y, e_a).
Each builder returns a fresh array, which whoever keeps it freezes.

All tensors are invariant (constant frame components), so covariant
derivatives reduce to the connection-coefficient corrections.  Everything
here takes the frame to be orthonormal (``Geometry.build`` maps into one
first) and takes no metric: stars and contractions are at g = I.
``spin7_torsion`` is the one derivation of the Lee form and the torsion: it
reads d phi and delta phi = -*d*phi once for every route of both, hands on
the theta ^ phi and theta . phi it builds them from, and refuses, through
``lambda3_covector``, a structure whose metric is not the identity.
"""

from __future__ import annotations

import numpy as np

from .forms import DIM, KForm, _dense_table, hodge_star, interior_product, wedge
from .liealgebra import LieAlgebra8, ce_differential
from .structure import Spin7Form, lambda3_covector


def levi_civita(alg: LieAlgebra8) -> np.ndarray:
    """Koszul formula on an orthonormal invariant frame."""
    c = alg.c
    return 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))


def connection_from_torsion(lc: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Metric connection with prescribed totally skew torsion T_ijk."""
    return lc + 0.5 * t3


def torsion_tensor(gamma: np.ndarray, alg: LieAlgebra8) -> np.ndarray:
    """T_{ijk} of nabla_X Y - nabla_Y X - [X, Y]."""
    return gamma - gamma.transpose(1, 0, 2) - alg.c


def covariant_derivative(gamma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(nabla_i t)_{j1..jr} of an invariant covariant tensor of any rank.

    -sum_s Gamma^m_{i j_s} t_{j1..m..jr}: per slot s, one (64, 8) x (8, 8^(r-1))
    matmul of Gamma_{(i j), m} against t with slot s moved first.
    """
    t = np.asarray(t, dtype=float)
    gamma = gamma.reshape(DIM * DIM, DIM)
    out = np.zeros((DIM,) * (t.ndim + 1))
    for s in range(t.ndim):
        prod = gamma @ t.swapaxes(0, s).reshape(DIM, -1)  # (i, j_s, t's slots with 0 at s)
        out -= prod.reshape(out.shape).swapaxes(1, 1 + s)
    return out


def curvature(gamma: np.ndarray, alg: LieAlgebra8) -> np.ndarray:
    """R_ijkl by (64, 8) x (8, 64) matmuls; the second product is the first with i, j swapped."""
    first = gamma.reshape(DIM * DIM, DIM) @ gamma.transpose(1, 0, 2).reshape(DIM, -1)  # (jk, il)
    first = first.reshape((DIM,) * 4).transpose(2, 0, 1, 3)
    bracket = (alg.c.reshape(DIM * DIM, DIM) @ gamma.reshape(DIM, -1)).reshape((DIM,) * 4)
    return first - first.transpose(1, 0, 2, 3) - bracket


def ricci(R: np.ndarray) -> np.ndarray:
    """Ric_{jk} = R_{ajka}, traced over a."""
    return np.trace(R, axis1=0, axis2=3)


def scalar_curv(ric: np.ndarray) -> float:
    return float(np.trace(ric))


# ---------------------------------------------------------------------------
# codifferential

def codifferential_via_star(beta: KForm, alg: LieAlgebra8) -> KForm:
    """delta = -*d* on every degree in dimension eight."""
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    return -1.0 * hodge_star(ce_differential(hodge_star(beta), alg))


def codifferential(beta: KForm, lc: np.ndarray) -> KForm:
    """Divergence form: (delta b)_J = -(nabla^g_a b)_{aJ}, traced before it is summed.

    With W_{ajm} = Gamma^m_{aj} of ``lc``, slot 0 of b gives v^m b_{mJ} (v^m = W_{aam})
    and every other slot s gives W_{a j_s m} b_{a..m..}, one
    (8, 64) x (64, 8^(k-2)) matmul with slots 0 and s of b first.
    """
    if beta.degree == 0:
        raise ValueError("codifferential of a 0-form")
    b = beta.dense
    out = (np.trace(lc) @ b.reshape(DIM, -1)).reshape(b.shape[1:])
    w_jbm = lc.transpose(1, 0, 2).reshape(DIM, DIM * DIM)
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
    s = (t3.reshape(DIM * DIM, DIM) @ t3.reshape(DIM * DIM, DIM).T).reshape(-1)
    # columns 0, 8, 12 place xyzv, yzxv, zxyv: the full table sum's three terms, in its order
    first, second, third = s[_dense_table(4)[0][:, (0, 8, 12)]].T
    return KForm.from_vector(4, first + second + third)


def spin7_torsion(structure: Spin7Form, alg: LieAlgebra8) -> tuple[
        KForm, tuple[KForm, KForm, KForm], tuple[KForm, KForm], tuple[KForm, KForm]]:
    """d(phi), then the Lee form's three routes and the torsion's two, which must agree.

    Lee form: -(1/7) * ( *d(phi) ^ phi ), (1/7) * ( delta(phi) ^ phi ) and
    theta = (1/7) (delta phi) . phi (three-index contraction), with
    delta(phi) = -*d*(phi).  Torsion of the unique metric connection preserving
    the structure: T = -*d(phi) + (7/6) * (theta ^ phi) and
    delta(phi) + (7/6) theta . phi.  theta is the last Lee route, T the first
    torsion route; (theta ^ phi, theta . phi) come last.
    """
    phi = structure.phi
    dphi = ce_differential(phi, alg)
    star_dphi = hodge_star(dphi)
    delta_phi = codifferential_via_star(phi, alg)
    theta = -1.0 * lambda3_covector(delta_phi, structure)
    lee_routes = ((-1.0 / 7.0) * hodge_star(wedge(star_dphi, phi)),
                  (1.0 / 7.0) * hodge_star(wedge(delta_phi, phi)),
                  theta)
    products = wedge(theta, phi), interior_product(theta, phi)
    torsion_routes = (-1.0 * star_dphi + (7.0 / 6.0) * hodge_star(products[0]),
                      delta_phi + (7.0 / 6.0) * products[1])
    return dphi, lee_routes, torsion_routes, products
