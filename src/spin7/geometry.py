"""Assembled geometry: an algebra plus a fundamental form and everything derived.

Verification runs in the g-orthonormal frame: ``Geometry.build`` maps a
structure whose metric is not IDENTITY_METRIC to the frame e'_i = B_ai e_a
with B^T g B = I (``structure.orthonormal_frame``, kept on the structure),
the constants to B_ai B_bj c^m_ab (B^-1)_km (``LieAlgebra8.in_frame``), and
keeps B as ``frame`` so a user's gradient df is read as B^T df.  No index is
raised after that: traces sum over repeated frame indices.  Only ``forms``
keeps metrics; ``spin7 decompose`` splits in the same frame and maps back.

Building makes one ``connection.spin7_torsion`` call, which gives d phi, the
three Lee-form routes (``lee_routes``; ``theta`` is the last), the two torsion
routes (``torsion_routes``; ``torsion`` is the first) and theta ^ phi and
theta . phi, kept for the checks; then the torsion connection and its
curvature, plain arrays frozen in place.  The Levi-Civita side depends on the
constants alone: the algebra owns it (``LieAlgebra8.lc_tables``) and its
geometries share it.  A form's dense table is its own ``KForm.dense``.
Everything else the checks read is a cached property, each array frozen: the
7-part of d theta, delta phi and delta theta by divergence (one matvec on the
1-form), delta phi's 48-part and its norm, delta T from nabla^g T, the cyclic
sum and pair asymmetry of the curvature, T o T, sigma_T, and the contractions
two check groups read: theta . T, theta . delta phi and the phi-trace of dT.
phi's derivation matrix, which gives nabla phi in one matmul, is kept on the
structure.
"""

from __future__ import annotations

import numpy as np

from .connection import (
    codifferential,
    connection_from_torsion,
    covariant_derivative,
    curvature,
    ricci,
    scalar_curv,
    sigma_t,
    spin7_torsion,
)
from .forms import KForm, _read_only, interior_product, norm_sq
from .liealgebra import LieAlgebra8, ce_differential
from .report import Frozen, cached
from .structure import Spin7Form, orthonormal_frame, project_lambda2, project_lambda3


class SolitonData(Frozen):
    """Gradient data for the steady soliton checks.

    f_gradient holds the components of df in the input frame, a read-only
    copy of the ones given; the zero covector means a constant potential,
    which is the invariant-geometry default.
    """

    def __init__(self, f_gradient: np.ndarray):
        v = np.array(f_gradient, dtype=float)
        if v.shape != (8,):
            raise ValueError(f"gradient covector needs 8 components, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("gradient covector must be finite")
        vars(self)["f_gradient"] = _read_only(v)

    @classmethod
    def constant_potential(cls) -> "SolitonData":
        return cls(np.zeros(8))


class Geometry(Frozen):
    """An algebra and a structure in the structure's g-orthonormal frame, and what is derived.

    Built by ``build`` only, with the fields name, algebra, structure, dphi,
    lee_routes (three KForms), torsion_routes (two KForms), theta_wedge_phi, theta_phi,
    frame (B: column i holds e'_i in the input frame), lc and conn (the Levi-Civita
    and torsion connections' tables gamma[i, j, k]), curv and curv_lc (their
    curvatures R[i, j, k, l]), ric_lc and scal_lc, the last four the algebra's
    ``lc_tables``.  Every array field and every cached table is read-only.
    """

    @classmethod
    def build(cls, algebra: LieAlgebra8, phi: KForm | Spin7Form, name: str | None = None) -> "Geometry":
        """The geometry in phi's g-orthonormal frame; an identity metric keeps the input frame."""
        given = Spin7Form.from_form(phi)
        structure, frame = orthonormal_frame(given)
        if structure is not given:
            algebra = algebra.in_frame(frame)
        dphi, lee_routes, torsion_routes, products = spin7_torsion(structure, algebra)
        lc, curv_lc, ric_lc, scal_lc = algebra.lc_tables
        conn = _read_only(connection_from_torsion(lc, torsion_routes[0].dense))
        curv = _read_only(curvature(conn, algebra))
        geom = cls.__new__(cls)
        vars(geom).update(name=name or algebra.name, algebra=algebra, structure=structure,
                          dphi=dphi, lee_routes=lee_routes, torsion_routes=torsion_routes,
                          theta_wedge_phi=products[0], theta_phi=products[1], frame=frame, lc=lc,
                          conn=conn, curv=curv, curv_lc=curv_lc, ric_lc=ric_lc, scal_lc=scal_lc)
        return geom

    @property
    def theta(self) -> KForm:
        """The Lee form, by the contraction route: the last of ``lee_routes``."""
        return self.lee_routes[2]

    @property
    def torsion(self) -> KForm:
        """The characteristic torsion, by the *d phi route: the first of ``torsion_routes``."""
        return self.torsion_routes[0]

    def phi_trace(self, x: np.ndarray) -> np.ndarray:
        """X_iabc phi_jabc of a 4-tensor X, one (8, 512) x (512, 8) matmul."""
        return x.reshape(8, 512) @ self.structure.phi.dense.reshape(8, 512).T

    # -- cached dense tables --------------------------------------------------

    @cached
    def t_square(self) -> np.ndarray:
        """(T o T)_xy = T_xia T_yia, one matmul: T_yia = T_iay as T is totally skew."""
        return self.torsion.dense.reshape(8, 64) @ self.torsion.dense.reshape(64, 8)

    @cached
    def dtorsion(self) -> KForm:
        return ce_differential(self.torsion, self.algebra)

    @cached
    def sigma(self) -> KForm:
        return sigma_t(self.torsion.dense)

    @cached
    def nabla_t(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.torsion.dense)

    @cached
    def nabla_t_lc(self) -> np.ndarray:
        return covariant_derivative(self.lc, self.torsion.dense)

    @cached
    def nabla_theta(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.theta.vec)

    @cached
    def dtheta(self) -> KForm:
        return ce_differential(self.theta, self.algebra)

    @cached
    def dtheta7(self) -> KForm:
        """The 7-part of d theta."""
        return project_lambda2(self.dtheta, self.structure)[0]

    @cached
    def delta_torsion(self) -> KForm:
        """delta T = -(nabla^g_a T)_{a..}, from the stored nabla^g T."""
        return KForm.from_array(-np.trace(self.nabla_t_lc))

    @cached
    def delta_theta(self) -> float:
        return float((np.trace(self.lc) @ self.theta.vec.reshape(8, 1))[0])

    @cached
    def delta_phi(self) -> KForm:
        return codifferential(self.structure.phi, self.lc)

    @cached
    def delta_phi48(self) -> KForm:
        """The 48-part of delta phi."""
        return project_lambda3(self.delta_phi, self.structure)[1]

    @cached
    def delta_phi48_norm_sq(self) -> float:
        return norm_sq(self.delta_phi48)

    @cached
    def bianchi_cycle(self) -> np.ndarray:
        """R_xyzv + R_yzxv + R_zxyv of the torsion connection."""
        R = self.curv
        return R + R.transpose(2, 0, 1, 3) + R.transpose(1, 2, 0, 3)

    @cached
    def pair_asymmetry(self) -> np.ndarray:
        """R_xyzv - R_zvxy of the torsion connection."""
        return self.curv - self.curv.transpose(2, 3, 0, 1)

    @cached
    def ric(self) -> np.ndarray:
        return ricci(self.curv)

    @cached
    def scal(self) -> float:
        return scalar_curv(self.ric)

    @cached
    def dt_phi_trace(self) -> np.ndarray:
        return self.phi_trace(self.dtorsion.dense)

    @cached
    def theta_torsion(self) -> KForm:
        return interior_product(self.theta, self.torsion)

    @cached
    def theta_delta_phi(self) -> KForm:
        return interior_product(self.theta, self.delta_phi)

    @cached
    def torsion_norm_sq(self) -> float:
        return norm_sq(self.torsion)

    @cached
    def theta_norm_sq(self) -> float:
        return norm_sq(self.theta)
