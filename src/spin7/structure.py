"""The fundamental Spin(7) 4-form and its representation-theoretic machinery.

The canonical form, the metric it induces, contraction identities, and the
orthogonal projections of 2-, 3- and 4-forms onto irreducible pieces
(dimensions 7+21, 8+48 and 1+7+27+35).  Lambda^2 and Lambda^4 split by
bases read off phi's derivation matrix D (X -> X . phi, whose kernel is the
stabilizer spin(7) = Lambda^2_21): its so(8) rows give Lambda^2_7 and
Lambda^4_7, phi gives Lambda^4_1, and its symmetric rows Lambda^4_35.  The
last part of each degree (21, 48, 27) is the form minus the others.

The bases are Spin(7)-equivariant and read at g = I: a form is split in its
structure's g-orthonormal frame (``orthonormal_frame``, kept on the structure)
and each part is pulled back by b^-1 (``pull_back``).
"""

from __future__ import annotations

import numpy as np

from .forms import (
    DIM,
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    _index_array,
    _read_only,
    _shared_table,
    canonical_indices,
    contract_into,
    hodge_star,
    interior_product,
    pull_back,
    residual,
)
from .report import Frozen, VerificationReport, cached, entry

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
    p = phi.dense.reshape(8, 512)
    with np.errstate(over="ignore", invalid="ignore"):
        g = p @ p.T / 42.0
    try:
        return IDENTITY_METRIC if np.array_equal(g, IDENTITY_METRIC.g) else FrameMetric(g)
    except ValueError as exc:
        raise ValueError(f"not an admissible fundamental form: {exc}") from exc


class Spin7Form(Frozen):
    """A fundamental 4-form ``phi`` together with its induced ``metric``.

    Its Lambda^2 and Lambda^4 bases are read at g = I: a structure that
    ``orthonormal_frame`` maps returns its mapped structure's.
    """

    def __init__(self, phi: KForm, metric: FrameMetric):
        vars(self).update(phi=phi, metric=metric)

    @classmethod
    def from_form(cls, phi: KForm | Spin7Form) -> "Spin7Form":
        """phi with its induced metric; a Spin7Form is returned as it is."""
        return phi if isinstance(phi, Spin7Form) else cls(phi, metric_from_phi(phi))

    @cached
    def derivation_matrix(self) -> np.ndarray:
        """The map X -> X . phi of gl(8) on phi's 70 canonical components, as a 64 x 70 matrix.

        D[(a, m), J] = sum_s [j_s = a] phi_{J with j_s -> m}, so X[a, m]
        acts on every slot as a derivation: (X . phi)_J = X.ravel() @ D.
        Its left kernel is the stabilizer algebra of phi, and a connection
        gives nabla phi = -Gamma.reshape(8, 64) @ D.  Read-only, one gather.
        """
        cells, source = _derivation_table()
        out = np.zeros((DIM * DIM, len(canonical_indices(4))))
        out[cells] = self.phi.dense.ravel()[source]
        return out

    @cached
    def lambda2_basis(self) -> np.ndarray:
        """Lambda^2_7 as 7 orthonormal rows over the 28 canonical 2-forms.

        b . phi = b.vec @ A for the so(8) rows A = D[8a+m] - D[8m+a], a < m.
        A A^T has eigenvalue 32 on Lambda^2_7 and 0 on Lambda^2_21; its
        eigenvectors above 16 are kept, a cut that also falls between the
        clusters of an inadmissible phi such as one with a sign flipped.
        """
        if (mapped := orthonormal_frame(self)[0]) is not self:
            return mapped.lambda2_basis
        so8 = _so8_rows(self)
        lam, vec = np.linalg.eigh(so8 @ so8.T)
        return vec[:, lam > 16.0].T

    @cached
    def lambda4_bases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lambda^4_1, Lambda^4_7 and Lambda^4_35 as orthonormal rows over the 70 canonical 4-forms.

        phi / |phi| spans the 1-part; A^T v / |A^T v| for v in ``lambda2_basis``
        span the 7-part, the so(8) rows' image.  The 35-part is the image of the
        symmetric rows D[8i+j] + D[8j+i], i <= j, with phi projected out: as
        I . phi = 4 phi, the last diagonal row adds nothing, and QR
        orthonormalizes the other 35.  Built only when a 4-form is split.
        """
        if (mapped := orthonormal_frame(self)[0]) is not self:
            return mapped.lambda4_bases
        d = self.derivation_matrix.reshape(DIM, DIM, -1)
        sym = (d + d.transpose(1, 0, 2))[np.triu_indices(DIM)][:-1]
        one = self.phi.vec / np.linalg.norm(self.phi.vec)
        seven = self.lambda2_basis @ _so8_rows(self)
        sym = sym - np.outer(sym @ one, one)
        return (one[None, :], seven / np.linalg.norm(seven, axis=1, keepdims=True),
                np.linalg.qr(sym.T)[0].T)

    @cached
    def _frame(self) -> tuple[Spin7Form, np.ndarray]:
        """``orthonormal_frame``'s map for a metric other than IDENTITY_METRIC, built once."""
        b = np.linalg.inv(self.metric.chol).T
        b[:, -1] *= self.metric.orientation
        return Spin7Form(pull_back(self.phi, b), IDENTITY_METRIC), b


def _so8_rows(structure: Spin7Form) -> np.ndarray:
    """D's so(8) rows D[8a+m] - D[8m+a] over the canonical pairs a < m: b . phi = b.vec @ them."""
    d = structure.derivation_matrix.reshape(DIM, DIM, -1)
    return (d - d.transpose(1, 0, 2))[tuple(_index_array(2).T)]


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


def orthonormal_frame(structure: Spin7Form) -> tuple[Spin7Form, np.ndarray]:
    """The structure in its g-orthonormal frame e'_i = b_ai e_a, carrying IDENTITY_METRIC, and b.

    b = L^-T for g = L L^T (last column negated on a negative orientation), so b^T g b = I;
    phi' = b* phi.  A structure with IDENTITY_METRIC is returned as it is, with b = I
    (the metric's own read-only table); any other's map is built once and kept on it.
    """
    m = structure.metric
    return (structure, m.g) if m is IDENTITY_METRIC else structure._frame


def canonical_phi() -> Spin7Form:
    """The canonical fundamental form; induced metric is the identity."""
    return Spin7Form(canonical_phi_form(), IDENTITY_METRIC)


# ---------------------------------------------------------------------------
# degree 2

def project_lambda2(beta: KForm, structure: Spin7Form) -> tuple[KForm, KForm]:
    """Split a 2-form into its 7- and 21-dimensional parts."""
    return _split(beta, structure, 2)


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
    """form's parts, split in the structure's orthonormal frame and pulled back by b^-1: its
    projections on the degree's bases, or a . phi, then form minus them (21, 48 or 27-part)."""
    if form.degree != degree:
        raise ValueError(f"expected a {degree}-form, got degree {form.degree}")
    mapped, b = orthonormal_frame(structure)
    x = form if mapped is structure else pull_back(form, b)
    if degree == 3:
        parts = (interior_product(lambda3_covector(x, mapped), mapped.phi),)
    else:
        bases = (mapped.lambda2_basis,) if degree == 2 else mapped.lambda4_bases
        parts = tuple(KForm.from_vector(degree, (q @ x.vec) @ q) for q in bases)
    if mapped is not structure:
        b_inv = np.linalg.inv(b)
        parts = tuple(pull_back(part, b_inv) for part in parts)
    rest = form - sum(parts[1:], parts[0])
    return parts[:2] + (rest,) + parts[2:] if degree == 4 else parts + (rest,)


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

    Checks positive-definiteness of the induced metric, then ``phi_identities``.
    Failures are report entries, not exceptions, except that a degenerate
    metric short-circuits the other checks.  A Spin7Form is mapped by the
    metric it already carries.
    """
    rep = VerificationReport("fundamental-form-admissibility")
    anchor = "id:fundamental-form-identities"
    try:
        structure = Spin7Form.from_form(phi)
    except ValueError as exc:
        rep.add(entry("induced_metric_spd", anchor, 1.0, tol, notes=str(exc)))
        return rep
    rep.add(entry("induced_metric_spd", anchor, 0.0, tol))
    rep.extend(entry(check_id, anchor, r, tol) for check_id, r in phi_identities(structure))
    return rep


def phi_identities(structure: Spin7Form):
    """(check_id, residual) of self-duality and the four contraction identities, in turn.

    Each is taken in the frame the structure's metric makes orthonormal
    (``orthonormal_frame``).
    """
    structure, _ = orthonormal_frame(structure)
    yield "self_dual", residual(hodge_star(structure.phi), structure.phi)

    p = structure.phi.dense
    # full contraction = 336
    yield "contraction_scalar_336", abs(np.einsum("ijpq,ijpq->", p, p) - 336.0)
    # three-index contraction = 42 g, g = I in this frame
    two = p.reshape(8, 512) @ p.reshape(8, 512).T
    yield "contraction_metric_42", float(np.max(np.abs(two - 42.0 * np.eye(DIM))))
    # two shared indices: 6(g g - g g) - 4 phi; phi_pqkl = phi_klpq (pair swap, no sign)
    lhs3 = (p.reshape(64, 64) @ p.reshape(64, 64)).reshape(p.shape)
    yield "contraction_two_index", float(np.max(np.abs(lhs3 - (_TWO_INDEX_G - 4.0 * p))))
    # one shared index: phi_ijks phi_abcs = (g g g) - (g phi).  Both sides
    # are antisymmetric in (i, j, k) and in (a, b, c), so their largest
    # difference is reached on canonical triples I = ijk, J = abc.
    p3 = p[tuple(_index_array(3).T)]
    yield "contraction_one_index", float(np.max(np.abs(p3 @ p3.T - one_index_rhs(p))))
