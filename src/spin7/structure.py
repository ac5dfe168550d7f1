"""The fundamental Spin(7) 4-form and its representation-theoretic machinery.

The canonical form, the metric it induces, contraction identities, and the
orthogonal projections of 2-, 3- and 4-forms onto irreducible pieces
(dimensions 7+21, 8+48 and 1+7+27+35).  On 2-forms b -> *(b ^ phi) has
eigenvalues -3, +1; on 4-forms the six-term contraction Omega has -24, -12,
4, 0.  Both operator matrices are read off phi's coefficients through the
(2, 2) merge table, and each degree splits by Lagrange polynomials in its matrix.

The splittings are Spin(7)-equivariant, so the operators take no metric and work
at g = I: a form is split in its structure's g-orthonormal frame (``orthonormal_frame``,
kept on the structure) and each part is pulled back by b^-1 (``pull_back``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .forms import (
    DIM,
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    _index_array,
    _merge_table,
    _read_only,
    _shared_table,
    canonical_indices,
    contract_into,
    hodge_star,
    interior_product,
    residual,
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

# b -> *(b ^ phi) on the 7-, 21-parts; Omega on the 1-, 7-, 27-, 35-parts (Spin7Form.projectors)
EIGENVALUES = {2: (-3, 1), 4: (-24, -12, 4, 0)}

# 6 (g_ik g_jl - g_il g_jk) at g = I, the metric side of validate_phi's two-index identity
_TWO_INDEX_G = np.einsum("ik,jl->ijkl", 6.0 * np.eye(DIM), np.eye(DIM))
_TWO_INDEX_G = _read_only(_TWO_INDEX_G - _TWO_INDEX_G.swapaxes(2, 3))


def canonical_phi_form() -> KForm:
    return KForm(4, {idx: float(sign) for sign, idx in CANONICAL_PHI_TERMS})


def metric_from_phi(phi: KForm) -> FrameMetric:
    """Metric induced by a fundamental 4-form: g_ij = (1/42) phi_iklm phi_jklm.

    An exact identity table is the shared IDENTITY_METRIC.  Raises ValueError when
    the result is not finite (overflow) or not positive-definite (not admissible).
    """
    if phi.degree != 4:
        raise ValueError(f"fundamental form must have degree 4, got {phi.degree}")
    p = phi.to_array().reshape(8, 512)
    with np.errstate(over="ignore", invalid="ignore"):
        g = p @ p.T / 42.0
    try:
        return IDENTITY_METRIC if np.array_equal(g, IDENTITY_METRIC.g) else FrameMetric(g)
    except ValueError as exc:
        raise ValueError(f"not an admissible fundamental form: {exc}") from exc


@dataclass(frozen=True)
class Spin7Form:
    """A fundamental 4-form together with its induced metric."""

    phi: KForm
    metric: FrameMetric
    # degree -> that degree's Lagrange projectors, "frame" -> orthonormal_frame(); filled on first use
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_form(cls, phi: KForm | Spin7Form) -> "Spin7Form":
        """phi with its induced metric; a Spin7Form is returned as it is."""
        return phi if isinstance(phi, Spin7Form) else cls(phi, metric_from_phi(phi))

    @cached_property
    def dense(self) -> np.ndarray:
        return _read_only(self.phi.to_array())

    @cached_property
    def derivation_matrix(self) -> np.ndarray:
        """The map X -> X . phi of gl(8) on phi's 70 canonical components, as a 64 x 70 matrix.

        D[(a, m), J] = sum_s [j_s = a] phi_{J with j_s -> m}, so X[a, m]
        acts on every slot as a derivation: (X . phi)_J = X.ravel() @ D.
        Its left kernel is the stabilizer algebra of phi, and a connection
        gives nabla phi = -Gamma.reshape(8, 64) @ D.  Read-only, one gather.
        """
        cells, source = _derivation_table()
        out = np.zeros((DIM * DIM, len(canonical_indices(4))))
        out[cells] = self.dense.ravel()[source]
        return _read_only(out)

    def projectors(self, degree: int) -> tuple[tuple[np.ndarray, int], ...]:
        """Lagrange projectors of degree 2 or 4: prod (A - mu I) and prod (lam - mu), mu != lam.

        One pair per lam of ``EIGENVALUES[degree]``; A = ``operator_matrix(phi, degree)``.
        Read-only, built once per degree; apply, then divide.  A structure that
        ``orthonormal_frame`` maps returns its mapped structure's.
        """
        if (mapped := orthonormal_frame(self)[0]) is not self:
            return mapped.projectors(degree)
        if degree not in self._cache:
            a = operator_matrix(self.phi, degree)
            eigs, parts = EIGENVALUES[degree], []
            for lam in eigs:
                others = [mu for mu in eigs if mu != lam]
                num = _read_only(reduce(np.matmul, [a - mu * np.eye(len(a)) for mu in others]))
                parts.append((num, math.prod(lam - mu for mu in others)))
            self._cache[degree] = tuple(parts)
        return self._cache[degree]


def operator_matrix(phi: KForm, degree: int) -> np.ndarray:
    """b -> *(b ^ phi) on 2-forms or Omega on 4-forms at g = I, read off phi's coefficients.

    A 4-form f has the pair matrix F[P, Q] = sign(P Q) f_K over the (2, 2) merge table's
    splits K = P u Q of 4-tuples.  *(b ^ phi) = b . *phi: *phi's pair matrix.  Omega(sigma)_K
    sums sign(P Q) M[P, Q] over K's six splits, M = 2 S Phi for S, Phi sigma's and phi's pair
    matrices, so on sigma = e^I only P = I n K gives a term: the table, 15 rows P u R per P,
    writes 2 sign(P Q) sign(P R) Phi[Q, R] to cell (P u Q, P u R): once, or 0 on the diagonal.
    """
    if degree not in EIGENVALUES:
        raise ValueError(f"only 2- and 4-forms split by projector, got degree {degree}")
    rows, left, right, sign = _merge_table(2, 2)
    pair = np.zeros((len(canonical_indices(2)),) * 2)
    pair[left, right] = sign * (hodge_star(phi) if degree == 2 else phi).vec[rows]
    if degree == 2:
        return pair
    k, c, s = (col.reshape(len(pair), -1) for col in (rows, right, sign))
    a = np.zeros((len(canonical_indices(4)),) * 2)
    a[k[:, :, None], k[:, None, :]] = (2.0 * s[:, :, None] * s[:, None, :]
                                       * pair[c[:, :, None], c[:, None, :]])
    return a


@_shared_table
def _derivation_table() -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Where ``Spin7Form.derivation_matrix`` puts phi_{J with j_s -> m}, and where it reads it.

    Returns the cells (row (a, m) with a = j_s, column J) and the flat
    position of the substituted tuple in the dense (8,)*4 table, each
    broadcast to (s, J, m) = (4, 70, 8).  For one J the four slots hold
    distinct a, so no two entries share a cell.
    """
    tuples, place = _index_array(4), DIM ** np.arange(3, -1, -1)
    j, m = tuples.T[:, :, None], np.arange(DIM)
    source = (tuples @ place)[:, None] + place[:, None, None] * (m - j)
    return (DIM * j + m, np.arange(len(tuples))[:, None]), source


def pull_back(form: KForm, b: np.ndarray) -> KForm:
    """b* form: (b* beta)_ij.. = beta_ab.. b_ai b_bj ..., one slot matmul per index."""
    arr = form.to_array()
    for s in range(form.degree):
        arr = (arr.swapaxes(s, -1) @ b).swapaxes(s, -1)
    return KForm.from_array(arr)


def orthonormal_frame(structure: Spin7Form) -> tuple[Spin7Form, np.ndarray]:
    """The structure in its g-orthonormal frame e'_i = b_ai e_a, carrying IDENTITY_METRIC, and b.

    b = L^-T for g = L L^T (last column negated on a negative orientation), so b^T g b = I;
    phi' = b* phi.  A structure with IDENTITY_METRIC is returned as it is, with b = I
    (the metric's own read-only table); any other's map is built once and kept on it.
    """
    m = structure.metric
    if m is IDENTITY_METRIC:
        return structure, m.g
    if "frame" not in structure._cache:
        b = np.linalg.inv(np.linalg.cholesky(m.g)).T
        b[:, -1] *= m.orientation
        b.setflags(write=False)
        structure._cache["frame"] = Spin7Form(pull_back(structure.phi, b), IDENTITY_METRIC), b
    return structure._cache["frame"]


def canonical_phi() -> Spin7Form:
    """The canonical fundamental form; induced metric is the identity."""
    return Spin7Form(canonical_phi_form(), IDENTITY_METRIC)


# ---------------------------------------------------------------------------
# degree 2

def project_lambda2(beta: KForm, structure: Spin7Form) -> tuple[KForm, KForm]:
    """Split a 2-form into its 7- and 21-dimensional parts."""
    return _split(beta, structure, 2)


def d_operator(alpha: KForm, structure: Spin7Form) -> KForm:
    """Four-term contraction of a 2-form against phi at g = I; kernel is the 21-part."""
    if alpha.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {alpha.degree}")
    # alpha_is phi_sjkl + ... is X . phi for X = alpha
    return KForm.from_vector(4, alpha.to_array().ravel() @ structure.derivation_matrix)


# ---------------------------------------------------------------------------
# degree 3

def lambda3_covector(gamma: KForm, structure: Spin7Form) -> KForm:
    """The covector a with 8-part = a . phi at g = I: a = -(1/7) gamma . phi.

    The sign is fixed so that the codifferential of phi recovers minus the
    Lee form (the convention every torsion formula in this package relies on).
    A structure that ``orthonormal_frame`` maps is refused, not read at g = I.
    """
    if gamma.degree != 3:
        raise ValueError(f"expected a 3-form, got degree {gamma.degree}")
    if orthonormal_frame(structure)[0] is not structure:
        raise ValueError("the structure's metric is not the identity: map it with "
                         "orthonormal_frame first, as Geometry.build and project_* do")
    # contract_into carries 1/3!, so -(1/42) gamma_ijk phi_ijka = -(1/7) * it
    return (-1.0 / 7.0) * contract_into(gamma, structure.phi)


def project_lambda3(gamma: KForm, structure: Spin7Form) -> tuple[KForm, KForm]:
    """Split a 3-form into its 8-part (a . phi) and 48-part (ker of ^ phi)."""
    return _split(gamma, structure, 3)


# ---------------------------------------------------------------------------
# degree 4

def project_lambda4(sigma: KForm, structure: Spin7Form) -> tuple[KForm, KForm, KForm, KForm]:
    """Split a 4-form into the 1-, 7-, 27- and 35-dimensional eigenparts."""
    return _split(sigma, structure, 4)


def _split(form: KForm, structure: Spin7Form, degree: int) -> tuple[KForm, ...]:
    """form's parts, split in the structure's orthonormal frame and pulled back by b^-1: each
    projector numerator applied, then divided, or a . phi and form - a . phi, recombining exactly."""
    if form.degree != degree:
        raise ValueError(f"expected a {degree}-form, got degree {form.degree}")
    mapped, b = orthonormal_frame(structure)
    x = form if mapped is structure else pull_back(form, b)
    if degree == 3:
        parts = (interior_product(lambda3_covector(x, mapped), mapped.phi),)
    else:
        parts = tuple(KForm.from_vector(degree, (1.0 / denom) * (num @ x.vec))
                      for num, denom in mapped.projectors(degree))
    if mapped is not structure:
        b_inv = np.linalg.inv(b)
        parts = tuple(pull_back(part, b_inv) for part in parts)
    return parts + (form - parts[0],) if degree == 3 else parts


def projector_ranks(structure: Spin7Form, degree: int, tol: float = 1e-6) -> tuple[int, ...]:
    """Ranks of the degree's projectors: (7, 21) and (1, 7, 27, 35) for an admissible form."""
    return tuple(int(np.linalg.matrix_rank(num / denom, tol=tol))
                 for num, denom in structure.projectors(degree))


# ---------------------------------------------------------------------------
# admissibility

def one_index_rhs(p: np.ndarray) -> np.ndarray:
    """(g g g) - (g phi) at g = I, the right side of phi_ijks phi_abcs, on canonical triples I, J.

    [I = J] minus the nine cyclic rotations of g_ia phi_jkbc over ijk and abc,
    which at g = I is a fixed sum of 3,528 terms phi_yzvw: one gather and one
    bincount over the table of ``_rotations``, in the order it fixes.
    """
    src, dst = _rotations()
    return np.eye(56) - np.bincount(dst, p.ravel()[src], 56 * 56).reshape(56, 56)


@_shared_table
def _rotations() -> tuple[np.ndarray, np.ndarray]:
    """The 3,528 terms of ``one_index_rhs``: flat index into phi's 8^4 table, and cell 56 I + J.

    Rows r and columns s run over the rotations (x, y, z) of the canonical triples,
    rotation-major.  Each (r, s) with x_r = x_s, in row-major order, reads 64 yz_r + yz_s,
    yz = 8y + z, into cell (r mod 56, s mod 56), so a cell adds by I's rotation, then J's.
    A cell I != J gets at most two terms; I = J gets three phi_yzyz, 0 on any 4-form.
    """
    x, y, z = np.concatenate([np.roll(_index_array(3), -r, axis=1) for r in range(3)]).T
    (r, s), yz = np.nonzero(x[:, None] == x), DIM * y + z
    return DIM * DIM * yz[r] + yz[s], r % 56 * 56 + s % 56


def validate_phi(phi: KForm | Spin7Form, tol: float = 1e-9) -> VerificationReport:
    """Run the full admissibility battery on a candidate fundamental form.

    Checks positive-definiteness of the induced metric, then, in the frame
    that metric makes orthonormal (``orthonormal_frame``), self-duality and
    the four contraction identities.  Failures are report entries, not
    exceptions, except that a degenerate metric short-circuits the other
    checks.  A Spin7Form is mapped by the metric it already carries.
    """
    rep = VerificationReport("fundamental-form-admissibility")
    anchor = "id:fundamental-form-identities"
    try:
        structure = Spin7Form.from_form(phi)
    except ValueError as exc:
        rep.add(entry("induced_metric_spd", anchor, 1.0, tol, notes=str(exc)))
        return rep
    rep.add(entry("induced_metric_spd", anchor, 0.0, tol))
    structure, _ = orthonormal_frame(structure)

    rep.add(entry("self_dual", anchor, residual(hodge_star(structure.phi), structure.phi), tol))

    p = structure.dense
    # full contraction = 336
    r1 = abs(np.einsum("ijpq,ijpq->", p, p) - 336.0)
    rep.add(entry("contraction_scalar_336", anchor, r1, tol))
    # three-index contraction = 42 g, g = I in this frame
    two = p.reshape(8, 512) @ p.reshape(8, 512).T
    r2 = float(np.max(np.abs(two - 42.0 * np.eye(DIM))))
    rep.add(entry("contraction_metric_42", anchor, r2, tol))
    # two shared indices: 6(g g - g g) - 4 phi; phi_pqkl = phi_klpq (pair swap, no sign)
    lhs3 = (p.reshape(64, 64) @ p.reshape(64, 64)).reshape(p.shape)
    r3 = float(np.max(np.abs(lhs3 - (_TWO_INDEX_G - 4.0 * p))))
    rep.add(entry("contraction_two_index", anchor, r3, tol))
    # one shared index: phi_ijks phi_abcs = (g g g) - (g phi).  Both sides
    # are antisymmetric in (i, j, k) and in (a, b, c), so their largest
    # difference is reached on canonical triples I = ijk, J = abc.
    p3 = p[tuple(_index_array(3).T)]
    r4 = float(np.max(np.abs(p3 @ p3.T - one_index_rhs(p))))
    rep.add(entry("contraction_one_index", anchor, r4, tol))
    return rep
