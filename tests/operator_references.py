"""Operators on forms that only the tests call, one form at a time.

``Spin7Form.lambda2_basis`` and ``lambda4_bases`` are read off phi's
derivation matrix; ``lambda2_operator`` and ``omega_operator`` are the
independent references they are held against: star of a wedge, and the
six-term contraction as one 64 x 64 matmul, with ``EIGENVALUES`` on the
parts 7, 21 and 1, 7, 27, 35.  ``d_operator`` is the
four-term contraction whose kernel is the 21-part, and
``star_interior_identities_check`` reports the four star/interior-product
exchange identities.  ``compound_matrix`` is the k x k minors of a matrix by
Laplace expansion: C_k(g^-1) @ a.vec is every index of a raised, the reference
``forms.raise_all`` is held against.

The report's shortcuts have their references here too: ``mirror_algebra`` is
the opposite bracket c -> -c, and ``mirror_torsion`` rederives its torsion
and dT through ``spin7_torsion``, the definitions the two ``bi_structure_*``
entries read off the geometry instead; ``metric_derivative`` is nabla g by the
general covariant derivative of the identity table, which ``parallel_metric``
reads off the metric-compatibility rows; ``reference_star`` is the star as
the contraction into the volume form, which ``forms.hodge_star`` computes as
a signed reversal; ``reference_sigma`` is sigma_T as the full three-term
(8,)*4 sum, whose 70 canonical components ``connection.sigma_t`` gathers.

The index tables have theirs: ``reference_merge_table``, ``reference_star_sign``
and ``reference_d_pattern`` enumerate index tuples with itertools and sort them,
one tuple at a time, where ``forms`` and ``liealgebra`` work on bit masks.
"""

import math
from itertools import combinations

import numpy as np

from spin7.checks import check_bi_spin7, check_connection_contracts
from spin7.connection import covariant_derivative, spin7_torsion
from spin7.forms import (
    DIM,
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    _merge_table,
    _shared_table,
    contract_into,
    hodge_star,
    interior_product,
    residual,
    volume_form,
    wedge,
)
from spin7.geometry import Geometry
from spin7.liealgebra import LieAlgebra8, ce_differential
from spin7.report import VerificationReport, entry, na_entry
from spin7.structure import Spin7Form


# lambda2_operator on the 7- and 21-parts; omega_operator on the 1-, 7-, 27- and 35-parts
EIGENVALUES = {2: (-3.0, 1.0), 4: (-24.0, -12.0, 4.0, 0.0)}


@_shared_table
def _laplace_table(degree: int):
    """_merge_table(1, k - 1) by output row: per k-tuple J and t, j_t, row of J - j_t, (-1)^t."""
    rows, cols_i, cols_j, sign = _merge_table(1, degree - 1)
    order = np.argsort(rows, kind="stable")
    return tuple(col[order].reshape(-1, degree) for col in (cols_i, cols_j, sign))


def compound_matrix(mat: np.ndarray, degree: int) -> np.ndarray:
    """The k x k minors C[I, J] = det mat[I, J] over canonical monomials.

    Laplace expansion along the first row, degree by degree:
    C_k[I, J] = sum_t (-1)^t mat[i_0, j_t] C_{k-1}[I - i_0, J - j_t], one
    gather-and-sum per degree; exact on the identity.  For g^{-1} it raises
    every index of a k-form at once: b^I = sum_J C[I, J] b_J.  It is made C-ordered,
    as BLAS rounds the raising downstream differently on an F-ordered operand.
    """
    out = np.ones((1, 1))
    for k in range(1, degree + 1):
        col, rest, sign = _laplace_table(k)
        out = np.ascontiguousarray(
            (sign * mat[col[:, 0]][:, col] * out[rest[:, 0]][:, rest]).sum(axis=-1))
    return out


def lambda2_operator(beta: KForm, structure: Spin7Form) -> KForm:
    """beta -> *(beta ^ phi) at g = I; eigenvalues -3 on the 7-part, +1 on the 21-part."""
    return hodge_star(wedge(beta, structure.phi))


def omega_operator(sigma: KForm, structure: Spin7Form) -> KForm:
    """Six-term double contraction of a 4-form against phi at g = I."""
    if sigma.degree != 4:
        raise ValueError(f"expected a 4-form, got degree {sigma.degree}")
    # M_ijkl = sigma_ijpq phi_pqkl; Omega = M + M_iklj + M_iljk + M_jkil + M_jlki + M_klij
    m = sigma.to_array().reshape(64, 64) @ structure.phi.dense.reshape(64, 64)
    axes = ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 3, 1), (2, 0, 1, 3), (3, 0, 2, 1), (2, 3, 0, 1))
    return KForm.from_array(sum(m.reshape((DIM,) * 4).transpose(ax) for ax in axes))


def d_operator(alpha: KForm, structure: Spin7Form) -> KForm:
    """Four-term contraction of a 2-form against phi at g = I; kernel is the 21-part."""
    if alpha.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {alpha.degree}")
    # alpha_is phi_sjkl + ... is X . phi for X = alpha
    return KForm.from_vector(4, alpha.to_array().ravel() @ structure.derivation_matrix)


def star_interior_identities_check(alpha, beta: KForm,
                                   m: FrameMetric = IDENTITY_METRIC,
                                   tol: float = 1e-12) -> VerificationReport:
    """Residuals of the four star/interior-product exchange identities.

    For a 1-form alpha and k-form beta in dimension eight:
        *(alpha . beta)  = (-1)^(k+1) alpha ^ *beta
        (alpha . beta)   = *(alpha ^ *beta)
        *(alpha . *beta) = -(alpha ^ beta)
        (alpha . *beta)  = (-1)^k *(alpha ^ beta)
    where . is interior product and ^ the wedge.
    """
    if not isinstance(alpha, KForm):
        alpha = KForm.covector(alpha)
    k = beta.degree
    rep = VerificationReport("star-interior-identities")
    anchor = "id:star-interior-exchange"
    star_b = hodge_star(beta, m)

    if k >= 1:
        lhs1 = hodge_star(interior_product(alpha, beta, m), m)
        rhs1 = ((-1.0) ** (k + 1)) * wedge(alpha, star_b)
        rep.add(entry("star_of_contraction", anchor, residual(lhs1, rhs1), tol))
        lhs2 = interior_product(alpha, beta, m)
        rhs2 = hodge_star(wedge(alpha, star_b), m)
        rep.add(entry("contraction_as_double_star", anchor, residual(lhs2, rhs2), tol))
    else:
        rep.add(na_entry("star_of_contraction", anchor, "needs degree >= 1"))
        rep.add(na_entry("contraction_as_double_star", anchor, "needs degree >= 1"))

    if k <= DIM - 1:
        lhs3 = hodge_star(interior_product(alpha, star_b, m), m)
        rhs3 = -1.0 * wedge(alpha, beta)
        rep.add(entry("star_of_dual_contraction", anchor, residual(lhs3, rhs3), tol))
        lhs4 = interior_product(alpha, star_b, m)
        rhs4 = ((-1.0) ** k) * hodge_star(wedge(alpha, beta), m)
        rep.add(entry("dual_contraction_as_star", anchor, residual(lhs4, rhs4), tol))
    else:
        rep.add(na_entry("star_of_dual_contraction", anchor, "needs degree <= 7"))
        rep.add(na_entry("dual_contraction_as_star", anchor, "needs degree <= 7"))
    return rep


def mirror_algebra(alg: LieAlgebra8) -> LieAlgebra8:
    """The opposite bracket c -> -c, the right-invariant counterpart of alg's frame.

    Negation keeps the Jacobi identity, so alg's load-time result is carried over.
    """
    return alg._derived(alg.name + "-mirror", -alg.c)


def mirror_torsion(geom: Geometry) -> tuple[KForm, KForm]:
    """The mirror algebra's torsion, derived afresh on geom's structure, and its dT."""
    mirror = mirror_algebra(geom.algebra)
    t_mirror = spin7_torsion(geom.structure, mirror)[2][0]
    return t_mirror, ce_differential(t_mirror, mirror)


def metric_derivative(gamma: np.ndarray) -> np.ndarray:
    """nabla g at g = I: the covariant derivative of the identity table."""
    return covariant_derivative(gamma, np.eye(DIM))


def reference_star(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """The Hodge star as the contraction of a into vol = sqrt(det g) orientation e_01234567."""
    return contract_into(a, volume_form(m), m)


def reference_sigma(t3: np.ndarray) -> KForm:
    """sigma_xyzv = S_xyz T_xya T_zva as the full table s + s_yzxv + s_zxyv, s_xyzv = T_xya T_zva."""
    s = (t3.reshape(DIM * DIM, DIM) @ t3.reshape(DIM * DIM, DIM).T).reshape((DIM,) * 4)
    return KForm.from_array(s + s.transpose(2, 0, 1, 3) + s.transpose(1, 2, 0, 3))


def shortcut_mismatches(geom: Geometry) -> list[str]:
    """The rows among bi_structure_* and parallel_metric whose value differs in any bit
    from its reference's; each group is run unwrapped, so a closed gate hides no row."""
    got = {**dict(check_connection_contracts.__wrapped__(geom)),
           **dict(check_bi_spin7.__wrapped__(geom, readings={}))}
    t_mirror, dt_mirror = mirror_torsion(geom)
    want = {
        "bi_structure_opposite_torsion": residual(t_mirror, -1.0 * geom.torsion),
        "bi_structure_mirror_closed": dt_mirror.max_abs(),
        "parallel_metric": max(float(np.abs(metric_derivative(geom.conn)).max()),
                               float(np.abs(metric_derivative(geom.lc)).max())),
    }
    return [i for i, value in want.items() if float(got[i]).hex() != value.hex()]


def _tuples(degree: int) -> list:
    return list(combinations(range(DIM), degree))


def _parity_sign(seq) -> float:
    """(-1) to the number of out-of-order pairs of seq."""
    return -1.0 if sum(x > y for x, y in combinations(seq, 2)) % 2 else 1.0


def reference_merge_table(p: int, q: int):
    """forms._merge_table(p, q) by enumeration: each disjoint (I, J), by I, then J, with the
    row of sorted(I + J) and the sign of the permutation that sorts I + J."""
    row_of = {idx: row for row, idx in enumerate(_tuples(p + q))}
    entries = [(row_of[tuple(sorted(i + j))], ci, cj, _parity_sign(i + j))
               for ci, i in enumerate(_tuples(p)) for cj, j in enumerate(_tuples(q))
               if not set(i) & set(j)]
    rows, cols_i, cols_j, sign = zip(*entries)
    return (np.array(rows, dtype=np.intp), np.array(cols_i, dtype=np.intp),
            np.array(cols_j, dtype=np.intp), np.array(sign))


def reference_star_sign(degree: int) -> np.ndarray:
    """forms._star_sign(k): the sign of sorting I + I^c, per canonical k-tuple I."""
    return np.array([_parity_sign(i + tuple(sorted(set(range(DIM)) - set(i))))
                     for i in _tuples(degree)])


def reference_d_pattern(k: int):
    """liealgebra._d_pattern(k) by enumeration, sorted by (column I, m, pair ab).

    d(e^I) = sum_p (-1)^p de^{i_p} ^ e^rest, rest = I without i_p, with
    de^m = sum_{a<b} -c^m_ab e^ab and e^ab ^ e^rest = sign(ab + rest) e^K."""
    row_of = {idx: row for row, idx in enumerate(_tuples(k + 1))}
    terms = []
    for col, idx in enumerate(_tuples(k)):
        for p, m in enumerate(idx):
            rest = idx[:p] + idx[p + 1:]
            for ab, (a, b) in enumerate(_tuples(2)):
                if a not in rest and b not in rest:
                    target = row_of[tuple(sorted(rest + (a, b)))] * math.comb(DIM, k) + col
                    sign = (-1.0) ** p * _parity_sign((a, b) + rest)
                    terms.append(((col, m, ab), target, (a * DIM + b) * DIM + m, sign))
    _, target, where, sign = zip(*sorted(terms))
    return np.array(target, dtype=np.intp), np.array(where, dtype=np.intp), np.array(sign)
