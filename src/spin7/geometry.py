"""Assembled geometry: an algebra plus a fundamental form and everything derived.

Building a Geometry computes once the induced metric, d phi, *d phi and
-*d*phi, the three Lee-form routes (``lee_routes``; ``theta`` is the
last), the two torsion routes (``torsion_routes``; ``torsion`` is the
first), T_xy^a (``t_last_up``, which the torsion connection and sigma_T
read), the Levi-Civita and torsion connections and both curvatures.
Everything else the identity suite reads, the 7-part of d theta, delta phi
and delta theta by divergence (``connection.codifferential``, which traces
g^{ab} into the Levi-Civita coefficients before it sums, so no nabla^g phi
table is built) with delta phi's 48-part and that part's norm, delta T from
the stored nabla^g T, the cyclic sum and the pair asymmetry of the
curvature, T with slots (0, 1) raised and T o T among it, is a cached
property computed on first use.  phi with raised slots and phi's 64 x 70
derivation matrix, which gives nabla phi in one matmul, are kept on the
structure (``Spin7Form.up``, ``Spin7Form.derivation_matrix``); a shipped
structure is one Spin7Form shared by every geometry on it, so these and its
metric are computed once per process.  Contractions of forms with theta, T
or phi are not tables here: the checks call ``forms.interior_product``,
``contract_into`` and ``full_contraction`` on the forms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import (
    CurvatureTensor,
    FrameConnection,
    codifferential,
    connection_from_torsion,
    covariant_derivative,
    curvature,
    lee_form_routes,
    levi_civita,
    phi_derivatives,
    ricci,
    scalar_curv,
    sigma_t,
    spin7_torsion_routes,
)
from .forms import KForm, norm_sq, raise_slots
from .liealgebra import LieAlgebra8, ce_differential
from .structure import Spin7Form, project_lambda2, project_lambda3


@dataclass(frozen=True)
class SolitonData:
    """Gradient data for the steady soliton checks.

    f_gradient holds the frame components of df; the zero covector means a
    constant potential, which is the invariant-geometry default.
    """

    f_gradient: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.f_gradient, dtype=float)
        if v.shape != (8,):
            raise ValueError(f"gradient covector needs 8 components, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("gradient covector must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "f_gradient", v)

    @classmethod
    def constant_potential(cls) -> "SolitonData":
        return cls(np.zeros(8))


@dataclass(frozen=True)
class Geometry:
    name: str
    algebra: LieAlgebra8
    structure: Spin7Form
    dphi: KForm
    lee_routes: tuple[KForm, KForm, KForm]
    torsion_routes: tuple[KForm, KForm]
    t_last_up: np.ndarray  # T_xy^a: slot 2 raised
    lc: FrameConnection
    conn: FrameConnection
    curv: CurvatureTensor
    curv_lc: CurvatureTensor

    @classmethod
    def build(cls, algebra: LieAlgebra8, phi: KForm | Spin7Form, name: str | None = None) -> "Geometry":
        structure = Spin7Form.from_form(phi)
        dphi, star_dphi, delta_phi = phi_derivatives(structure, algebra)
        lee_routes = lee_form_routes(structure, star_dphi, delta_phi)
        torsion_routes = spin7_torsion_routes(structure, star_dphi, delta_phi, lee_routes[2])
        t_last_up = raise_slots(torsion_routes[0].to_array(), structure.metric, (2,))
        lc = levi_civita(algebra, structure.metric)
        conn = connection_from_torsion(lc, t_last_up)
        return cls(
            name=name or algebra.name,
            algebra=algebra,
            structure=structure,
            dphi=dphi,
            lee_routes=lee_routes,
            torsion_routes=torsion_routes,
            t_last_up=t_last_up,
            lc=lc,
            conn=conn,
            curv=curvature(conn, algebra),
            curv_lc=curvature(lc, algebra),
        )

    @property
    def theta(self) -> KForm:
        """The Lee form, by the contraction route (as ``lee_form``)."""
        return self.lee_routes[2]

    @property
    def torsion(self) -> KForm:
        """The characteristic torsion, by the *d phi route (as ``spin7_torsion``)."""
        return self.torsion_routes[0]

    # -- cached dense tables --------------------------------------------------

    @property
    def metric(self):
        return self.structure.metric

    @cached_property
    def t3(self) -> np.ndarray:
        return self.torsion.to_array()

    @cached_property
    def t_up2(self) -> np.ndarray:
        """T^ab_c: slots 0 and 1 raised."""
        return raise_slots(self.t3, self.metric, (0, 1))

    @cached_property
    def t_square(self) -> np.ndarray:
        """(T o T)_xy = T_xia T_y^ia, one matmul: T_y^ia = T^ia_y as T is totally skew."""
        return self.t3.reshape(8, 64) @ self.t_up2.reshape(64, 8)

    @cached_property
    def theta_vec(self) -> np.ndarray:
        return self.theta.covector_components()

    @cached_property
    def dtorsion(self) -> KForm:
        return ce_differential(self.torsion, self.algebra)

    @cached_property
    def dt4(self) -> np.ndarray:
        return self.dtorsion.to_array()

    @cached_property
    def sigma(self) -> KForm:
        return sigma_t(self.t3, self.t_last_up)

    @cached_property
    def sigma4(self) -> np.ndarray:
        return self.sigma.to_array()

    @cached_property
    def nabla_t(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.t3)

    @cached_property
    def nabla_t_lc(self) -> np.ndarray:
        return covariant_derivative(self.lc, self.t3)

    @cached_property
    def nabla_theta(self) -> np.ndarray:
        return covariant_derivative(self.conn, self.theta_vec)

    @cached_property
    def dtheta(self) -> KForm:
        return ce_differential(self.theta, self.algebra)

    @cached_property
    def dtheta7(self) -> KForm:
        """The 7-part of d theta."""
        return project_lambda2(self.dtheta, self.structure)[0]

    @cached_property
    def delta_torsion(self) -> KForm:
        """delta T = -g^{ab} (nabla^g_a T)_{b..}, from the stored nabla^g T."""
        return KForm.from_array(-np.einsum("ab,ab...->...", self.metric.inv, self.nabla_t_lc))

    @cached_property
    def delta_t2(self) -> np.ndarray:
        return self.delta_torsion.to_array()

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
        return norm_sq(self.delta_phi48, self.metric)

    @cached_property
    def bianchi_cycle(self) -> np.ndarray:
        """R_xyzv + R_yzxv + R_zxyv of the torsion connection."""
        R = self.curv.R
        return R + np.einsum("yzxv->xyzv", R) + np.einsum("zxyv->xyzv", R)

    @cached_property
    def pair_asymmetry(self) -> np.ndarray:
        """R_xyzv - R_zvxy of the torsion connection."""
        return self.curv.R - np.einsum("zvxy->xyzv", self.curv.R)

    @cached_property
    def ric(self) -> np.ndarray:
        return ricci(self.curv, self.metric)

    @cached_property
    def ric_lc(self) -> np.ndarray:
        return ricci(self.curv_lc, self.metric)

    @cached_property
    def scal(self) -> float:
        return scalar_curv(self.ric, self.metric)

    @cached_property
    def scal_lc(self) -> float:
        return scalar_curv(self.ric_lc, self.metric)

    @cached_property
    def torsion_norm_sq(self) -> float:
        return norm_sq(self.torsion, self.metric)

    @cached_property
    def theta_norm_sq(self) -> float:
        return norm_sq(self.theta, self.metric)
