"""Exterior algebra over a fixed oriented 8-dimensional frame.

Conventions used throughout the package:

* Frame indices run 0..7.  A k-form is one float vector over
  ``canonical_indices(k)`` (increasing tuples in lexicographic order, the
  basis of ``LieAlgebra8.d_matrix``); the component at any index order is
  the canonical coefficient times the permutation sign (0 on repeats).
* An index set is also an 8-bit mask.  One subset table, built on first use, holds
  each mask's row among the canonical tuples of its size and its size.  Merging I
  and J has one sign: (-1) to the number of pairs i in I, j in J with i > j.
* ``wedge`` and ``contract_into`` run on one fixed table per degree pair:
  (output row, left column, right column, sign).  a ^ b and +/-(b ^ a) are
  bit-identical: the (q, p) table is the (p, q) table with its columns
  swapped in the same order, and for p = q the two products of each
  unordered pair are added before accumulating.
* Raising every index of a k-form is its pull-back by g^{-1} (``raise_all``
  through ``pull_back``, one slot matmul per index, the package's one frame
  map); above degree 4 the complement is pulled back by g instead, and at
  IDENTITY_METRIC the form is used as it is.  This is the package's one way
  to raise an index; the structure layer works in orthonormal frames and raises none.
* ``full_contraction(a, b, m)`` is a_I b^I over ALL index tuples, i.e. k!
  times the sum over canonical monomials.  Norms always mean that.
* Hodge star: (*b)_J = (1/k!) b^I eps_{IJ} sqrt(det g) orientation, so *1 = vol
  and ** = (-1)^k in dimension eight.  The i-th canonical k-tuple's complement
  is the (C(8, k) - 1 - i)-th canonical (8 - k)-tuple, so *b is b's raised vector
  reversed, signed by sign(I, I^c), the merge sign, and scaled by sqrt(det g) times
  the orientation.  The interior product is the contraction of a covector.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache, wraps
from itertools import combinations, compress, permutations
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .report import Frozen, _json_field, _json_kind, _json_loads, _json_shape, _read_only, cached

DIM = 8
FULL_INDEX = tuple(range(DIM))
_VECTOR_SHAPES = tuple((math.comb(DIM, k),) for k in range(DIM + 1))  # a k-form's vec shape


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
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in idx):
        raise ValueError(f"multi-index {tuple(idx)!r} has an entry that is not an integer")
    t = tuple(int(i) for i in idx)
    if len(t) != degree:
        raise ValueError(f"multi-index {t} has length {len(t)}, expected {degree}")
    if any(i < 0 or i >= DIM for i in t):
        raise ValueError(f"multi-index {t} out of range 0..{DIM - 1}")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise ValueError(f"multi-index {t} is not strictly increasing")
    return t


def _shared_table(build):
    """lru_cache for a function that builds a table every later call shares: made read-only."""
    return lru_cache(maxsize=None)(wraps(build)(lambda *args: _read_only(build(*args))))


@lru_cache(maxsize=None)
def _row_of(degree: int) -> dict:
    """Row of each canonical tuple; look up only tuples of Python ints: (True, 2.0) == (1, 2)."""
    return {idx: row for row, idx in enumerate(canonical_indices(degree))}


@_shared_table
def _index_array(degree: int) -> np.ndarray:
    """canonical_indices(degree) as a C(8, k) x k integer array."""
    return np.array(canonical_indices(degree), dtype=np.intp).reshape(math.comb(DIM, degree), degree)


@_shared_table
def _subsets():
    """Subset table: each 8-bit mask's row among the canonical tuples of its size and its
    size; and per degree k, the mask of each canonical k-tuple in row order."""
    masks = tuple((1 << _index_array(k)).sum(axis=1) for k in range(DIM + 1))
    rows, sizes = np.zeros(1 << DIM, dtype=np.intp), np.zeros(1 << DIM, dtype=np.intp)
    for k, mask in enumerate(masks):
        rows[mask], sizes[mask] = np.arange(len(mask)), k
    return rows, sizes, masks


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
    of J, sign of sorting I + J): (-1) to the number of i in I above each j in J.
    """
    rows, sizes, masks = _subsets()
    cols_i, cols_j = np.nonzero((masks[p][:, None] & masks[q]) == 0)
    mask_i = masks[p][cols_i]
    above = sizes[mask_i[:, None] >> (_index_array(q)[cols_j] + 1)].sum(axis=1)
    return rows[mask_i | masks[q][cols_j]], cols_i, cols_j, 1.0 - 2.0 * (above % 2)


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


def _star_sign(degree: int) -> np.ndarray:
    """sign(I, I^c) of each canonical k-tuple I, whose complement I^c is row C(8, k) - 1 - i."""
    return _merge_table(degree, DIM - degree)[3]


@_shared_table
def _dense_table(degree: int):
    """Where every reordering of every canonical k-tuple sits in the flat (8,)*k array.

    Returns the C(8, k) x k! positions, identity order in column 0, and the k! signs.
    """
    perms = np.array(list(permutations(range(degree))), dtype=np.intp)
    place = DIM ** np.arange(degree - 1, -1, -1)
    return _index_array(degree)[:, perms] @ place, _sign(perms)


# ---------------------------------------------------------------------------
# frame metric

class FrameMetric(Frozen):
    """Symmetric positive-definite 8x8 coefficient table with orientation.

    orientation +1 means the oriented volume is +e_{01234567}.  ``g`` holds
    the table symmetrized and ``chol`` its lower Cholesky factor L of
    g = L L^T, both read-only.
    """

    def __init__(self, g: np.ndarray, orientation: int = 1):
        g = np.asarray(g, dtype=float)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be {DIM}x{DIM}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric table has non-finite entries")
        if not np.all(np.abs(g - g.T) <= 1e-14 + 1e-5 * np.abs(g.T)):  # np.allclose's test
            raise ValueError("metric table is not symmetric")
        g = _read_only(0.5 * (g + g.T))
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        try:
            chol = _read_only(np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            raise ValueError("metric table is not positive-definite") from None
        vars(self).update(g=g, orientation=orientation, chol=chol)

    @classmethod
    def identity(cls) -> "FrameMetric":
        return cls(np.eye(DIM))

    # on the identity, chol, inv and det come out exact, with no -0.0
    @cached
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached
    def sqrt_det(self) -> float:
        return float(math.sqrt(np.linalg.det(self.g)))


IDENTITY_METRIC = FrameMetric.identity()


# ---------------------------------------------------------------------------
# k-forms

class KForm(Frozen):
    """Degree-k antisymmetric tensor: its coefficient vector over canonical_indices(k).

    ``KForm(degree, coeffs)`` reads a map from strictly increasing tuples of
    int or numpy integers (not bool) to coefficients and validates each; results
    of operations are built by ``from_vector``, which has nothing to validate.
    """

    __hash__ = None

    def __init__(self, degree: int, coeffs: dict):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be 0..{DIM}, got {degree}")
        rows = _row_of(degree)
        vec = np.zeros(len(rows))
        for idx, c in coeffs.items():
            row = rows.get(idx) if all(type(i) is int for i in idx) else None
            vec[rows[validate_multi_index(idx, degree)] if row is None else row] = float(c)
        d = self.__dict__
        d["degree"], d["vec"] = degree, _read_only(vec)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vector(cls, degree: int, vec) -> "KForm":
        """The form with coefficient vector vec over canonical_indices(degree) (copied)."""
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be 0..{DIM}, got {degree}")
        vec, shape = np.array(vec, dtype=float), _VECTOR_SHAPES[degree]
        if vec.shape != shape:
            raise ValueError(f"degree-{degree} coefficient vector needs shape "
                             f"{shape}, got {vec.shape}")
        vec.setflags(write=False)
        form = cls.__new__(cls)
        d = form.__dict__
        d["degree"], d["vec"] = degree, vec
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

    @cached
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
        return float(np.maximum.reduce(np.abs(self.vec), axis=None))

    def to_array(self) -> np.ndarray:
        """Dense fully antisymmetric component table, shape (8,)*k: a fresh, writable copy."""
        positions, signs = _dense_table(self.degree)
        arr = np.zeros(DIM ** self.degree)
        arr[positions] = self.vec[:, None] * signs
        return arr.reshape((DIM,) * self.degree)

    @cached
    def dense(self) -> np.ndarray:
        """``to_array()``, built once and shared read-only."""
        return self.to_array()

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
    return float(np.maximum.reduce(np.abs(a.vec - b.vec), axis=None))


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


def pull_back(form: KForm, b: np.ndarray) -> KForm:
    """b* form: (b* beta)_ij.. = beta_ab.. b_ai b_bj ..., one slot matmul per index."""
    arr = form.dense
    for s in range(form.degree):
        arr = (arr.swapaxes(s, -1) @ b).swapaxes(s, -1)
    return KForm.from_array(arr)


def raise_all(a: KForm, m: FrameMetric) -> KForm:
    """a with every index raised by g^-1: its pull-back by g^-1, or a itself at IDENTITY_METRIC.

    Above degree 4 the complement is pulled back instead, by the complementary-minor
    identity C_k(g^-1) a = (-1)^k / det g *(g* *a), * the star at g = I, so no
    raising builds a table of more than 8^4 entries.  1/det g is applied as 1/prod(diag L)
    twice: within a few ulp at any scale, and in double range wherever the result is.
    """
    if m is IDENTITY_METRIC:
        return a
    if a.degree <= DIM // 2:
        return pull_back(a, m.inv)
    scale = 1.0 / float(np.prod(np.diag(m.chol)))
    return (-1) ** a.degree * scale * hodge_star(scale * pull_back(hodge_star(a), m.g))


def contract_into(alpha: KForm, beta: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """(1/p!) alpha^{A} beta_{A J}: a p-form contracted into a q-form, p <= q.

    For p = 1 this is the ordinary interior product.
    """
    p, q = alpha.degree, beta.degree
    if p > q:
        raise ValueError("contraction degree exceeds target degree")
    rows, cols_a, cols_j, sign = _merge_table(p, q - p)
    raised = raise_all(alpha, m).vec
    terms = sign * raised[cols_a] * beta.vec[rows]
    return KForm.from_vector(q - p, np.bincount(cols_j, terms, math.comb(DIM, q - p)))


def volume_form(m: FrameMetric = IDENTITY_METRIC) -> KForm:
    return KForm.from_vector(DIM, [m.sqrt_det * m.orientation])


def hodge_star(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """Hodge dual as the module notes' signed reversal; bit for bit contract_into(a, vol, m)."""
    vec = _star_sign(a.degree) * raise_all(a, m).vec * (m.sqrt_det * m.orientation)
    return KForm.from_vector(DIM - a.degree, vec[::-1] + 0.0)  # -0.0 -> +0.0, as in that sum


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
    return math.factorial(a.degree) * float(a.vec @ raise_all(b, m).vec)


def norm_sq(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> float:
    return full_contraction(a, a, m)


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
    degree = _json_kind(_json_field(d, "degree", "a k-form"), int, "degree")
    coeffs: dict = {}
    for term in _json_shape(_json_field(d, "terms", "a k-form"), list, "field 'terms'"):
        term = _json_shape(term, dict, "each entry of 'terms'")
        idx = _json_shape(_json_field(term, "idx", "each entry of 'terms'"), list, "field 'idx'")
        idx = validate_multi_index([_json_kind(i, int, "idx") for i in idx], degree)
        if idx in coeffs:
            raise ValueError(f"duplicate multi-index {idx} in serialized form")
        c = _json_kind(_json_field(term, "c", "each entry of 'terms'"), (int, float), "c")
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
