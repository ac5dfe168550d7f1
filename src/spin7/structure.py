"""The fundamental Spin(7) 4-form and its representation-theoretic machinery.

The canonical form, the metric it induces, contraction identities, and the
orthogonal projections of 2-, 3- and 4-forms onto irreducible pieces
(dimensions 7+21, 8+48 and 1+7+27+35).  Projectors are built from the
eigenvalue characterizations: on 2-forms the operator b -> *(b ^ phi) has
eigenvalues -3 and +1; on 4-forms the six-term contraction operator has
eigenvalues -24, -12, 4, 0 and the projectors are Lagrange polynomials in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .forms import (
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    canonical_indices,
    compound_matrix,
    contract_into,
    hodge_star,
    interior_product,
    raise_slots,
    residual,
    wedge,
)
from .report import VerificationReport, entry

# The canonical fundamental 4-form: 14 unit monomials.
CANONICAL_PHI_TERMS = (
    (-1, (0, 1, 2, 7)),
    (+1, (0, 2, 3, 6)),
    (-1, (0, 3, 4, 7)),
    (-1, (0, 5, 6, 7)),
    (+1, (0, 1, 4, 6)),
    (+1, (0, 2, 4, 5)),
    (-1, (0, 1, 3, 5)),
    (-1, (3, 4, 5, 6)),
    (-1, (1, 4, 5, 7)),
    (-1, (1, 2, 5, 6)),
    (-1, (1, 2, 3, 4)),
    (-1, (2, 3, 5, 7)),
    (-1, (1, 3, 6, 7)),
    (+1, (2, 4, 6, 7)),
)

LAMBDA2_EIGENVALUES = {"7": -3.0, "21": 1.0}
LAMBDA4_EIGENVALUES = {"1": -24.0, "7": -12.0, "27": 4.0, "35": 0.0}


def canonical_phi_form() -> KForm:
    return KForm(4, {idx: float(sign) for sign, idx in CANONICAL_PHI_TERMS})


def metric_from_phi(phi: KForm) -> FrameMetric:
    """Metric induced by a fundamental 4-form: g_ij = (1/42) phi_iklm phi_jklm.

    Raises ValueError when the result is not positive-definite (the form is
    then not admissible).
    """
    if phi.degree != 4:
        raise ValueError(f"fundamental form must have degree 4, got {phi.degree}")
    p = phi.to_array()
    g = np.einsum("iklm,jklm->ij", p, p) / 42.0
    try:
        return FrameMetric(g)
    except ValueError as exc:
        raise ValueError(f"not an admissible fundamental form: {exc}") from exc


@dataclass(frozen=True)
class Spin7Form:
    """A fundamental 4-form together with its induced metric."""

    phi: KForm
    metric: FrameMetric
    # slot tuple -> phi with those slots raised, filled on first use
    _up: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_form(cls, phi: KForm) -> "Spin7Form":
        return cls(phi, metric_from_phi(phi))

    @cached_property
    def dense(self) -> np.ndarray:
        arr = self.phi.to_array()
        arr.setflags(write=False)
        return arr

    def up(self, slots: tuple[int, ...]) -> np.ndarray:
        """phi with ``slots`` raised by ``raise_slots``; read-only, built once per slot tuple."""
        if slots not in self._up:
            self._up[slots] = raise_slots(self.dense, self.metric, slots)
            self._up[slots].setflags(write=False)
        return self._up[slots]


def canonical_phi() -> Spin7Form:
    """The canonical fundamental form; induced metric is the identity."""
    return Spin7Form(canonical_phi_form(), IDENTITY_METRIC)


# ---------------------------------------------------------------------------
# degree 2

def lambda2_operator(beta: KForm, structure: Spin7Form) -> KForm:
    """beta -> *(beta ^ phi); eigenvalues -3 on the 7-part, +1 on the 21-part."""
    return hodge_star(wedge(beta, structure.phi), structure.metric)


def project_lambda2(beta: KForm, structure: Spin7Form) -> tuple[KForm, KForm]:
    """Split a 2-form into its 7- and 21-dimensional parts."""
    lb = lambda2_operator(beta, structure)
    part7 = 0.25 * (beta - lb)
    part21 = 0.25 * (lb + 3.0 * beta)
    return part7, part21


def d_operator(alpha: KForm, structure: Spin7Form) -> KForm:
    """Four-term contraction of a 2-form against phi; kernel is the 21-part."""
    if alpha.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {alpha.degree}")
    p = structure.dense
    # contracted slot raised; one substitution per slot of phi, same index
    # pattern in each term, so the kernel is exactly the stabilizer algebra
    a2 = raise_slots(alpha.to_array(), structure.metric, (1,))
    out = (
        np.einsum("is,sjkl->ijkl", a2, p)
        + np.einsum("js,iskl->ijkl", a2, p)
        + np.einsum("ks,ijsl->ijkl", a2, p)
        + np.einsum("ls,ijks->ijkl", a2, p)
    )
    return KForm.from_array(out)


# ---------------------------------------------------------------------------
# degree 3

def lambda3_covector(gamma: KForm, structure: Spin7Form) -> KForm:
    """The covector a with 8-part = a . phi: a = -(1/7) gamma . phi.

    The sign is fixed so that the codifferential of phi recovers minus the
    Lee form (the convention every torsion formula in this package relies on).
    """
    if gamma.degree != 3:
        raise ValueError(f"expected a 3-form, got degree {gamma.degree}")
    # contract_into carries 1/3!, so -(1/42) gamma^{ijk} phi_{ijka} = -(1/7) * it
    return (-1.0 / 7.0) * contract_into(gamma, structure.phi, structure.metric)


def project_lambda3(gamma: KForm, structure: Spin7Form) -> tuple[KForm, KForm]:
    """Split a 3-form into its 8-part (a . phi) and 48-part (ker of ^ phi)."""
    alpha = lambda3_covector(gamma, structure)
    part8 = interior_product(alpha, structure.phi, structure.metric)
    part48 = gamma - part8
    return part8, part48


# ---------------------------------------------------------------------------
# degree 4

def omega_operator(sigma: KForm, structure: Spin7Form) -> KForm:
    """Six-term double contraction of a 4-form against phi."""
    if sigma.degree != 4:
        raise ValueError(f"expected a 4-form, got degree {sigma.degree}")
    s = sigma.to_array()
    p = structure.up((0, 1))
    out = (
        np.einsum("ijpq,pqkl->ijkl", s, p)
        + np.einsum("ikpq,pqlj->ijkl", s, p)
        + np.einsum("ilpq,pqjk->ijkl", s, p)
        + np.einsum("jkpq,pqil->ijkl", s, p)
        + np.einsum("jlpq,pqki->ijkl", s, p)
        + np.einsum("klpq,pqij->ijkl", s, p)
    )
    return KForm.from_array(out)


def project_lambda4(sigma: KForm, structure: Spin7Form) -> tuple[KForm, KForm, KForm, KForm]:
    """Split a 4-form into the 1-, 7-, 27- and 35-dimensional eigenparts."""
    eigs = [LAMBDA4_EIGENVALUES[k] for k in ("1", "7", "27", "35")]
    parts = []
    for lam in eigs:
        out = sigma
        denom = 1.0
        for mu in eigs:
            if mu == lam:
                continue
            out = omega_operator(out, structure) - mu * out
            denom *= lam - mu
        parts.append((1.0 / denom) * out)
    return tuple(parts)


# ---------------------------------------------------------------------------
# projector ranks (used by the representation-theory acceptance tests)

def projector_matrix(project, degree: int, n_parts: int) -> list[np.ndarray]:
    """Matrices of the projectors over the canonical monomial basis."""
    columns = [project(KForm.monomial(idx)) for idx in canonical_indices(degree)]
    return [np.array([parts[n].vec for parts in columns]).T for n in range(n_parts)]


def lambda2_ranks(structure: Spin7Form, tol: float = 1e-6) -> tuple[int, int]:
    mats = projector_matrix(lambda b: project_lambda2(b, structure), 2, 2)
    return tuple(int(np.linalg.matrix_rank(m, tol=tol)) for m in mats)


def lambda4_ranks(structure: Spin7Form, tol: float = 1e-6) -> tuple[int, int, int, int]:
    mats = projector_matrix(lambda s: project_lambda4(s, structure), 4, 4)
    return tuple(int(np.linalg.matrix_rank(m, tol=tol)) for m in mats)


# ---------------------------------------------------------------------------
# admissibility

def validate_phi(phi: KForm | Spin7Form, tol: float = 1e-9) -> VerificationReport:
    """Run the full admissibility battery on a candidate fundamental form.

    Checks positive-definiteness of the induced metric, self-duality with
    respect to it, and the four contraction identities (written with the
    induced metric in place of the flat one).  Failures are report entries,
    not exceptions, except that a degenerate metric short-circuits the
    contraction checks.  A Spin7Form is checked against the metric it
    already carries.
    """
    rep = VerificationReport("fundamental-form-admissibility")
    anchor = "id:fundamental-form-identities"
    if isinstance(phi, Spin7Form):
        structure = phi
    else:
        try:
            structure = Spin7Form.from_form(phi)
        except ValueError as exc:
            rep.add(entry("induced_metric_spd", anchor, 1.0, tol, notes=str(exc)))
            return rep
    rep.add(entry("induced_metric_spd", anchor, 0.0, tol))
    phi, m = structure.phi, structure.metric

    sd = residual(hodge_star(phi, m), phi)
    rep.add(entry("self_dual", anchor, sd, tol))

    p = structure.dense
    g = m.g
    # full contraction = 336
    r1 = abs(np.einsum("ijpq,ijpq->", p, structure.up((0, 1, 2, 3))) - 336.0)
    rep.add(entry("contraction_scalar_336", anchor, r1, tol))
    # three-index contraction = 42 g
    two = np.einsum("ijpq,ajpq->ia", p, structure.up((1, 2, 3)))
    r2 = float(np.max(np.abs(two - 42.0 * g)))
    rep.add(entry("contraction_metric_42", anchor, r2, tol))
    # two shared indices: 6(g g - g g) - 4 phi
    lhs3 = np.einsum("ijpq,klpq->ijkl", p, structure.up((2, 3)))
    rhs3 = (
        6.0 * np.einsum("ik,jl->ijkl", g, g)
        - 6.0 * np.einsum("il,jk->ijkl", g, g)
        - 4.0 * p
    )
    r3 = float(np.max(np.abs(lhs3 - rhs3)))
    rep.add(entry("contraction_two_index", anchor, r3, tol))
    # one shared index: phi_ijk^s phi_abcs = (g g g) - (g phi).  Both sides
    # are antisymmetric in (i, j, k) and in (a, b, c), so their largest
    # difference is reached on canonical triples I = ijk, J = abc.  The
    # g g g part is the 3x3 minor det g[I, J]; the g phi part sums the
    # cyclic rotations of g_ia phi_jkbc over ijk and over abc.
    triples = tuple(np.array(canonical_indices(3), dtype=np.intp).T)
    i, j, k = (n[:, None] for n in triples)
    a, b, c = (n[None, :] for n in triples)
    rhs4 = compound_matrix(g, 3)
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            rhs4 -= g[x, u] * p[y, z, v, w]
    lhs4 = structure.up((3,))[triples] @ p[triples].T
    r4 = float(np.max(np.abs(lhs4 - rhs4)))
    rep.add(entry("contraction_one_index", anchor, r4, tol))
    return rep
