"""Exterior algebra over a fixed oriented 8-dimensional frame.

Conventions used throughout the package:

* Frame indices run 0..7.  A k-form is one float vector over
  ``canonical_indices(k)`` (increasing tuples in lexicographic order, the
  basis of ``LieAlgebra8.d_matrix``); the component at any index order is
  the canonical coefficient times the permutation sign (0 on repeats).
* ``wedge`` and ``contract_into`` run on one fixed table per degree pair:
  (output row, left column, right column, sign).  a ^ b and +/-(b ^ a) are
  bit-identical: the (q, p) table is the (p, q) table with its columns
  swapped in the same order, and for p = q the two products of each
  unordered pair are added before accumulating.
* Raising every index of a k-form multiplies it by the compound matrix of
  g^{-1} (its k x k minors, by Laplace expansion), kept on the
  ``FrameMetric`` per degree.  This is the package's one way to raise an
  index; the structure layer works in orthonormal frames and raises none.
* ``full_contraction(a, b, m)`` is a_I b^I over ALL index tuples, i.e. k!
  times the sum over canonical monomials.  Norms always mean that.
* Hodge star is the contraction into vol = sqrt(det g) orientation e_{01234567}:
  *b = contract_into(b, vol), (*b)_J = (1/k!) b^I eps_{IJ} sqrt(det g), so
  *1 = vol and ** = (-1)^k in dimension eight.  The interior product is the
  contraction of a covector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from itertools import combinations, compress, permutations
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .report import (VerificationReport, _json_field, _json_int, _json_loads, _json_number,
                     _json_shape, entry, na_entry)

DIM = 8
FULL_INDEX = tuple(range(DIM))


# ---------------------------------------------------------------------------
# multi-index combinatorics

def sort_with_sign(indices) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple; return (sorted tuple, permutation sign), sign 0 on a repeat."""
    idx = tuple(sorted(indices))
    if len(set(idx)) < len(idx):
        return idx, 0
    return idx, int(_sign(np.array([indices], dtype=np.intp))[0])


@lru_cache(maxsize=None)
def canonical_indices(degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing index tuples of the given degree."""
    return tuple(combinations(FULL_INDEX, degree))


def validate_multi_index(idx, degree: int) -> tuple[int, ...]:
    t = tuple(int(i) for i in idx)
    if len(t) != degree:
        raise ValueError(f"multi-index {t} has length {len(t)}, expected {degree}")
    if any(i < 0 or i >= DIM for i in t):
        raise ValueError(f"multi-index {t} out of range 0..{DIM - 1}")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise ValueError(f"multi-index {t} is not strictly increasing")
    return t


def _read_only(value):
    """value, with every array in it (nested in tuples or not) made read-only."""
    if isinstance(value, tuple):
        for x in value:
            _read_only(x)
    else:
        value.setflags(write=False)
    return value


def _shared_table(build):
    """lru_cache for a function that builds a table every later call shares: made read-only."""
    return lru_cache(maxsize=None)(wraps(build)(lambda *args: _read_only(build(*args))))


@_shared_table
def _index_array(degree: int) -> np.ndarray:
    """canonical_indices(degree) as a C(8, k) x k integer array."""
    return np.array(canonical_indices(degree), dtype=np.intp).reshape(math.comb(DIM, degree), degree)


def _sign(seqs: np.ndarray) -> np.ndarray:
    """Permutation sign of each row of an integer array whose rows do not repeat."""
    inversions = np.zeros(len(seqs), dtype=np.intp)
    for a, b in combinations(range(seqs.shape[1]), 2):
        inversions += seqs[:, a] > seqs[:, b]
    return 1.0 - 2.0 * (inversions % 2)


# ---------------------------------------------------------------------------
# tables, built once per degree or degree pair

@_shared_table
def _merge_table(p: int, q: int):
    """Every disjoint pair (I, J) of canonical p- and q-tuples, ordered by I, then J.

    Returns (row of I u J among canonical (p+q)-tuples, column of I, column
    of J, sign of sorting I + J).
    """
    mask_p, mask_q, mask_pq = ((1 << _index_array(k)).sum(axis=1) for k in (p, q, p + q))
    cols_i, cols_j = np.nonzero((mask_p[:, None] & mask_q) == 0)
    row_of = np.zeros(1 << DIM, dtype=np.intp)
    row_of[mask_pq] = np.arange(len(mask_pq))
    merged = np.hstack([_index_array(p)[cols_i], _index_array(q)[cols_j]])
    return row_of[mask_p[cols_i] | mask_q[cols_j]], cols_i, cols_j, _sign(merged)


@_shared_table
def _wedge_table(p: int, q: int):
    """The merge table of a p-form ^ q-form as (output row, left column, right column, sign).

    For p > q it is the (q, p) table with the columns swapped, entry for
    entry; for p = q it keeps the pairs with I before J (see ``wedge``).
    """
    if p > q:
        rows, left, right, sign = _wedge_table(q, p)
        return rows, right, left, sign * (-1) ** (p * q)
    table = _merge_table(p, q)
    return tuple(col[table[1] < table[2]] for col in table) if p == q else table


@_shared_table
def _dense_table(degree: int):
    """Where every reordering of every canonical k-tuple sits in the flat (8,)*k array.

    Returns the C(8, k) x k! positions, identity order in column 0, and the k! signs.
    """
    perms = np.array(list(permutations(range(degree))), dtype=np.intp)
    place = DIM ** np.arange(degree - 1, -1, -1)
    return _index_array(degree)[:, perms] @ place, _sign(perms)


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


# ---------------------------------------------------------------------------
# frame metric

@dataclass(frozen=True)
class FrameMetric:
    """Symmetric positive-definite 8x8 coefficient table with orientation.

    orientation +1 means the oriented volume is +e_{01234567}.
    """

    g: np.ndarray
    orientation: int = 1
    # degree k -> compound matrix of g^{-1}, filled on first use
    _raise: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be {DIM}x{DIM}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric table has non-finite entries")
        if not np.all(np.abs(g - g.T) <= 1e-14 + 1e-5 * np.abs(g.T)):  # np.allclose's test
            raise ValueError("metric table is not symmetric")
        g = _read_only(0.5 * (g + g.T))
        object.__setattr__(self, "g", g)
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError("metric table is not positive-definite") from None

    @classmethod
    def identity(cls) -> "FrameMetric":
        return cls(np.eye(DIM))

    # on the identity, inv, det and every compound matrix come out exact, with no -0.0
    @cached_property
    def inv(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self.g))

    @cached_property
    def sqrt_det(self) -> float:
        return float(math.sqrt(np.linalg.det(self.g)))

    def raise_matrix(self, degree: int) -> np.ndarray:
        """The compound matrix of g^{-1} on k-forms; see ``compound_matrix``."""
        mat = self._raise.get(degree)
        if mat is None:
            mat = self._raise[degree] = _read_only(compound_matrix(self.inv, degree))
        return mat


IDENTITY_METRIC = FrameMetric.identity()


# ---------------------------------------------------------------------------
# k-forms

class KForm:
    """Degree-k antisymmetric tensor: its coefficient vector over canonical_indices(k).

    ``KForm(degree, coeffs)`` reads a map from strictly increasing index
    tuples to coefficients and validates every multi-index; results of
    operations are built by ``from_vector``, which has nothing to validate.
    """

    __hash__ = None

    def __init__(self, degree: int, coeffs: dict):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be 0..{DIM}, got {degree}")
        basis = canonical_indices(degree)
        vec = np.zeros(len(basis))
        for idx, c in coeffs.items():
            vec[basis.index(validate_multi_index(idx, degree))] = float(c)
        self.degree, self.vec = degree, _read_only(vec)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vector(cls, degree: int, vec) -> "KForm":
        """The form with coefficient vector vec over canonical_indices(degree) (copied)."""
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be 0..{DIM}, got {degree}")
        vec, shape = np.array(vec, dtype=float), (math.comb(DIM, degree),)
        if vec.shape != shape:
            raise ValueError(f"degree-{degree} coefficient vector needs shape "
                             f"{shape}, got {vec.shape}")
        form = cls.__new__(cls)
        form.degree, form.vec = degree, _read_only(vec)
        return form

    @classmethod
    def zero(cls, degree: int) -> "KForm":
        return cls(degree, {})

    @classmethod
    def monomial(cls, indices, coeff: float = 1.0) -> "KForm":
        idx, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            raise ValueError(f"repeated index in monomial {tuple(indices)}")
        return cls(len(idx), {idx: sign * coeff})

    @classmethod
    def scalar(cls, value: float) -> "KForm":
        return cls(0, {(): value})

    @classmethod
    def basis_covector(cls, i: int) -> "KForm":
        return cls(1, {(i,): 1.0})

    @classmethod
    def covector(cls, components) -> "KForm":
        return cls.from_vector(1, list(components))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "KForm":
        """Read canonical components off a dense antisymmetric array."""
        arr = np.asarray(arr, dtype=float)
        k = arr.ndim
        if arr.shape != (DIM,) * k:
            raise ValueError(f"dense form table must have shape (8,)*k, got {arr.shape}")
        return cls.from_vector(k, arr.reshape(-1)[_dense_table(k)[0][:, 0]])

    # -- accessors ----------------------------------------------------------

    @cached_property
    def coeffs(self) -> MappingProxyType:
        """Read-only map from canonical index tuples to the nonzero coefficients."""
        nonzero = self.vec != 0.0
        return MappingProxyType(dict(zip(compress(canonical_indices(self.degree), nonzero),
                                         self.vec[nonzero].tolist())))

    def component(self, indices) -> float:
        """Fully antisymmetric component at an arbitrary index order."""
        idx, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return 0.0
        return sign * self.coeffs.get(idx, 0.0)

    def __getitem__(self, indices) -> float:
        return self.component((indices,) if isinstance(indices, int) else indices)

    def terms(self):
        """Canonical (index tuple, coefficient) pairs in lexicographic order."""
        return list(self.coeffs.items())

    def max_abs(self) -> float:
        return float(np.abs(self.vec).max())

    def covector_components(self) -> np.ndarray:
        if self.degree != 1:
            raise ValueError(f"not a covector: degree {self.degree}")
        return np.array(self.vec)

    def to_array(self) -> np.ndarray:
        """Dense fully antisymmetric component table, shape (8,)*k."""
        positions, signs = _dense_table(self.degree)
        arr = np.zeros(DIM ** self.degree)
        arr[positions] = self.vec[:, None] * signs
        return arr.reshape((DIM,) * self.degree)

    # -- linear algebra -----------------------------------------------------

    def _require_same_degree(self, other: "KForm"):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return self.degree == other.degree and bool(np.array_equal(self.vec, other.vec))

    def __add__(self, other: "KForm") -> "KForm":
        self._require_same_degree(other)
        return KForm.from_vector(self.degree, self.vec + other.vec)

    # a - b is a + (-b) and -a is (-1.0) * a, bit for bit (IEEE 754)
    def __sub__(self, other: "KForm") -> "KForm":
        self._require_same_degree(other)
        return KForm.from_vector(self.degree, self.vec - other.vec)

    def __neg__(self) -> "KForm":
        return KForm.from_vector(self.degree, -self.vec)

    def __mul__(self, scalar: float) -> "KForm":
        return KForm.from_vector(self.degree, self.vec * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.degree}, 0)"
        parts = [f"{c:+g}*e{''.join(map(str, idx))}" for idx, c in self.terms()]
        return f"KForm({self.degree}, {' '.join(parts)})"


def residual(a: KForm, b: KForm) -> float:
    """Max-abs componentwise difference (components are signed coefficients)."""
    a._require_same_degree(b)
    return float(np.abs(a.vec - b.vec).max())


# ---------------------------------------------------------------------------
# operations

def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; a ^ b and +/-(b ^ a) are bit-identical (see the module notes)."""
    p, q = a.degree, b.degree
    if p + q > DIM:
        raise ValueError(f"degree overflow: {p} + {q} > {DIM}")
    x, y = a.vec, b.vec
    if p == 0 or q == 0:
        return KForm.from_vector(p + q, x * y)
    rows, left, right, sign = _wedge_table(p, q)
    if p == q:
        terms = sign * (x[left] * y[right] + (-1) ** p * (x[right] * y[left]))
    else:
        terms = sign * x[left] * y[right]
    return KForm.from_vector(p + q, np.bincount(rows, terms, math.comb(DIM, p + q)))


def contract_into(alpha: KForm, beta: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """(1/p!) alpha^{A} beta_{A J}: a p-form contracted into a q-form, p <= q.

    For p = 1 this is the ordinary interior product.
    """
    p, q = alpha.degree, beta.degree
    if p > q:
        raise ValueError("contraction degree exceeds target degree")
    rows, cols_a, cols_j, sign = _merge_table(p, q - p)
    raised = m.raise_matrix(p) @ alpha.vec
    terms = sign * raised[cols_a] * beta.vec[rows]
    return KForm.from_vector(q - p, np.bincount(cols_j, terms, math.comb(DIM, q - p)))


def volume_form(m: FrameMetric = IDENTITY_METRIC) -> KForm:
    return KForm.from_vector(DIM, [m.sqrt_det * m.orientation])


def hodge_star(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """Hodge dual with respect to the frame metric and orientation."""
    return contract_into(a, volume_form(m), m)


def interior_product(x, a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """Contraction of a covector (index raised by g) into the first slot."""
    if a.degree == 0:
        raise ValueError("interior product of a degree-0 form")
    x = x if isinstance(x, KForm) else KForm.covector(x)
    if x.degree != 1:
        raise ValueError(f"not a covector: degree {x.degree}")
    return contract_into(x, a, m)


def full_contraction(a: KForm, b: KForm, m: FrameMetric = IDENTITY_METRIC) -> float:
    """a_I b^I summed over ALL index tuples (no 1/k! factor)."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return math.factorial(a.degree) * float(a.vec @ (m.raise_matrix(b.degree) @ b.vec))


def norm_sq(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> float:
    return full_contraction(a, a, m)


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


# ---------------------------------------------------------------------------
# serialization

def form_to_dict(a: KForm) -> dict:
    return {
        "degree": a.degree,
        "terms": [{"idx": list(idx), "c": c} for idx, c in a.terms()],
    }


def form_to_json(a: KForm) -> str:
    return json.dumps(form_to_dict(a), indent=2)


def read_json(path):
    """The JSON value in the file at path; nesting too deep to parse is refused, naming the file."""
    return _json_loads(Path(path).read_text(), path)


def form_from_dict(d: dict) -> KForm:
    """A k-form from its JSON dict; coefficients must be JSON numbers, not bool or text."""
    d = _json_shape(d, dict, "a k-form")
    degree = _json_int(_json_field(d, "degree", "a k-form"), "degree")
    coeffs: dict = {}
    for term in _json_shape(_json_field(d, "terms", "a k-form"), list, "field 'terms'"):
        term = _json_shape(term, dict, "each entry of 'terms'")
        idx = _json_shape(_json_field(term, "idx", "each entry of 'terms'"), list, "field 'idx'")
        idx = validate_multi_index([_json_int(i, "idx") for i in idx], degree)
        if idx in coeffs:
            raise ValueError(f"duplicate multi-index {idx} in serialized form")
        c = _json_number(_json_field(term, "c", "each entry of 'terms'"), "c")
        try:
            c = float(c)
        except OverflowError:  # a JSON integer beyond double range
            c = math.inf
        if not math.isfinite(c):
            raise ValueError(f"coefficient of multi-index {idx} is not finite: {c!r}")
        coeffs[idx] = c
    return KForm(degree, coeffs)


def form_from_json(text: str) -> KForm:
    return form_from_dict(_json_loads(text))
