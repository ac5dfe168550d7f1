"""Assembled geometry: an algebra plus a fundamental form and everything derived.

Verification runs in the g-orthonormal frame: ``Geometry.build`` maps a
structure whose metric is not IDENTITY_METRIC to the frame e'_i = B_ai e_a
with B^T g B = I (``structure.orthonormal_frame``, kept on the structure),
the constants to B_ai B_bj c^m_ab (B^-1)_km (``LieAlgebra8.in_frame``), and
keeps B as ``frame`` so a user's gradient df is read as B^T df.  No index is
raised after that: traces sum over repeated frame indices.  Only ``forms``
keeps metrics; ``spin7 decompose`` splits in the same frame and maps back.

Building makes one ``connection.spin7_torsion`` call, which gives d phi, the
three Lee-form routes (``lee_routes``; ``theta`` is the last) and the two
torsion routes (``torsion_routes``; ``torsion`` is the first), and computes
the Levi-Civita and torsion connections and both curvatures.  These are plain
arrays that the build freezes in place, with no copy: a Geometry owns every
table it holds and shares it read-only.  A form's dense table is the form's
own ``KForm.dense`` (T's is ``torsion.dense``), built once and read-only.
Everything else the identity suite reads is a cached property computed on
first use, each array frozen as it is stored:
the 7-part of d theta, delta phi and delta theta by divergence
(``connection.codifferential`` traces the Levi-Civita coefficients before it
sums, so no nabla^g phi table is built), delta phi's 48-part and its norm,
delta T from the stored nabla^g T, the cyclic sum and pair asymmetry of the
curvature, and T o T.  phi's derivation matrix, which gives nabla phi in one
matmul, is kept on the structure, so a shipped structure computes it once
per process.  Contractions of forms with theta, T or phi go through
``forms`` on the forms themselves.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .connection import (
    codifferential,
    connection_from_torsion,
    covariant_derivative,
    curvature,
    levi_civita,
    ricci,
    scalar_curv,
    sigma_t,
    spin7_torsion,
)
from .forms import KForm, _read_only, _shared_property, norm_sq
from .liealgebra import LieAlgebra8, ce_differential
from .report import Frozen
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
    lee_routes (three KForms), torsion_routes (two KForms), frame (B: column i
    holds e'_i in the input frame), lc and conn (the Levi-Civita and torsion
    connections' tables gamma[i, j, k]) and curv and curv_lc (their curvatures
    R[i, j, k, l]).  Every array field and every cached table is read-only.
    """

    @classmethod
    def build(cls, algebra: LieAlgebra8, phi: KForm | Spin7Form, name: str | None = None) -> "Geometry":
        """The geometry in phi's g-orthonormal frame; an identity metric keeps the input frame."""
        given = Spin7Form.from_form(phi)
        structure, frame = orthonormal_frame(given)
        if structure is not given:
            algebra = algebra.in_frame(frame)
        dphi, lee_routes, torsion_routes = spin7_torsion(structure, algebra)
        lc = levi_civita(algebra)
        conn = connection_from_torsion(lc, torsion_routes[0].dense)
        curv, curv_lc = curvature(conn, algebra), curvature(lc, algebra)
        _read_only((lc, conn, curv, curv_lc))
        geom = cls.__new__(cls)
        vars(geom).update(
            name=name or algebra.name,
            algebra=algebra,
            structure=structure,
            dphi=dphi,
            lee_routes=lee_routes,
            torsion_routes=torsion_routes,
            frame=frame,
            lc=lc,
            conn=conn,
            curv=curv,
            curv_lc=curv_lc,
        )
        return geom

    @property
    def theta(self) -> KForm:
        """The Lee form, by the contraction route: the last of ``lee_routes``."""
        return self.lee_routes[2]

    @property
    def torsion(self) -> KForm:
        """The characteristic torsion, by the *d phi route: the first of ``torsion_routes``."""
        return self.torsion_routes[0]

    # -- cached dense tables --------------------------------------------------

    @_shared_property
    def t_square(self) -> np.ndarray:
        """(T o T)_xy = T_xia T_yia, one matmul: T_yia = T_iay as T is totally skew."""
        return self.torsion.dense.reshape(8, 64) @ self.torsion.dense.reshape(64, 8)

    @cached_property
    def dtorsion(self) -> KForm:
        return ce_differential(self.torsion, self.algebra)

    @cached_property
    def sigma(self) -> KForm:
        return sigma_t(self.torsion.dense)

    @_shared_property
    def nabla_t(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.torsion.dense)

    @_shared_property
    def nabla_t_lc(self) -> np.ndarray:
        return covariant_derivative(self.lc, self.torsion.dense)

    @_shared_property
    def nabla_theta(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.theta.vec)

    @cached_property
    def dtheta(self) -> KForm:
        return ce_differential(self.theta, self.algebra)

    @cached_property
    def dtheta7(self) -> KForm:
        """The 7-part of d theta."""
        return project_lambda2(self.dtheta, self.structure)[0]

    @cached_property
    def delta_torsion(self) -> KForm:
        """delta T = -(nabla^g_a T)_{a..}, from the stored nabla^g T."""
        return KForm.from_array(-np.trace(self.nabla_t_lc))

    @cached_property
    def delta_theta(self) -> float:
        return float(codifferential(self.theta, self.lc).vec[0])

    @cached_property
    def delta_phi(self) -> KForm:
        return codifferential(self.structure.phi, self.lc)

    @cached_property
    def delta_phi48(self) -> KForm:
        """The 48-part of delta phi."""
        return project_lambda3(self.delta_phi, self.structure)[1]

    @cached_property
    def delta_phi48_norm_sq(self) -> float:
        return norm_sq(self.delta_phi48)

    @_shared_property
    def bianchi_cycle(self) -> np.ndarray:
        """R_xyzv + R_yzxv + R_zxyv of the torsion connection."""
        R = self.curv
        return R + np.einsum("yzxv->xyzv", R) + np.einsum("zxyv->xyzv", R)

    @_shared_property
    def pair_asymmetry(self) -> np.ndarray:
        """R_xyzv - R_zvxy of the torsion connection."""
        return self.curv - np.einsum("zvxy->xyzv", self.curv)

    @_shared_property
    def ric(self) -> np.ndarray:
        return ricci(self.curv)

    @_shared_property
    def ric_lc(self) -> np.ndarray:
        return ricci(self.curv_lc)

    @cached_property
    def scal(self) -> float:
        return scalar_curv(self.ric)

    @cached_property
    def scal_lc(self) -> float:
        return scalar_curv(self.ric_lc)

    @cached_property
    def torsion_norm_sq(self) -> float:
        return norm_sq(self.torsion)

    @cached_property
    def theta_norm_sq(self) -> float:
        return norm_sq(self.theta)
