"""Sparse exterior algebra over a fixed oriented 8-dimensional frame.

Conventions used throughout the package:

* Frame indices run 0..7.  A k-form is stored as a map from strictly
  increasing index tuples to float coefficients; the fully antisymmetric
  component at an arbitrary index order is the canonical coefficient times
  the permutation sign (0 on repeated indices).
* The oriented volume form is +e_{01234567}.
* ``full_contraction(a, b, m)`` is the contraction a_I b^I over ALL index
  tuples, i.e. k! times the sum over canonical monomials.  Norms in this
  package always mean that convention.
* Hodge star: (*b)_J = (1/k!) b^I eps_{IJ} sqrt(det g), so *1 = vol and
  ** = (-1)^k on k-forms in dimension eight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np

from .report import VerificationReport, entry, na_entry

DIM = 8
FULL_INDEX = tuple(range(DIM))


# ---------------------------------------------------------------------------
# multi-index combinatorics

def sort_with_sign(indices) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple; return (sorted tuple, permutation sign).

    The sign is 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_with_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Merge two strictly increasing tuples; sign counts block crossings.

    Returns (merged, 0) when the tuples intersect.
    """
    i = j = 0
    sign = 1
    merged = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return (), 0
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def complement(indices: tuple[int, ...]) -> tuple[int, ...]:
    present = set(indices)
    return tuple(i for i in FULL_INDEX if i not in present)


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


# ---------------------------------------------------------------------------
# frame metric

@dataclass(frozen=True)
class FrameMetric:
    """Symmetric positive-definite 8x8 coefficient table with orientation.

    orientation +1 means the oriented volume is +e_{01234567}.
    """

    g: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be {DIM}x{DIM}, got {g.shape}")
        if not np.allclose(g, g.T, atol=1e-14):
            raise ValueError("metric table is not symmetric")
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
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

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.g, np.eye(DIM)))

    @cached_property
    def inv(self) -> np.ndarray:
        out = np.eye(DIM) if self.is_identity else np.linalg.inv(self.g)
        out.setflags(write=False)
        return out

    @cached_property
    def sqrt_det(self) -> float:
        return 1.0 if self.is_identity else float(math.sqrt(np.linalg.det(self.g)))

    @cached_property
    def cholesky(self) -> np.ndarray:
        out = np.linalg.cholesky(self.g)
        out.setflags(write=False)
        return out


IDENTITY_METRIC = FrameMetric.identity()


# ---------------------------------------------------------------------------
# k-forms

@dataclass(frozen=True)
class KForm:
    """Degree-k antisymmetric tensor in canonical sparse storage."""

    degree: int
    coeffs: dict

    def __post_init__(self):
        if not 0 <= self.degree <= DIM:
            raise ValueError(f"degree must be 0..{DIM}, got {self.degree}")
        clean = {}
        for idx, c in self.coeffs.items():
            t = validate_multi_index(idx, self.degree)
            c = float(c)
            if c != 0.0:
                clean[t] = c
        object.__setattr__(self, "coeffs", clean)

    # -- constructors -------------------------------------------------------

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
        comp = list(components)
        if len(comp) != DIM:
            raise ValueError(f"covector needs {DIM} components, got {len(comp)}")
        return cls(1, {(i,): float(c) for i, c in enumerate(comp)})

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "KForm":
        """Read canonical components off a dense antisymmetric array."""
        arr = np.asarray(arr, dtype=float)
        k = arr.ndim if arr.shape != () else 0
        if k == 0:
            return cls(0, {(): float(arr)})
        return cls(k, {idx: float(arr[idx]) for idx in canonical_indices(k)})

    # -- accessors ----------------------------------------------------------

    def component(self, indices) -> float:
        """Fully antisymmetric component at an arbitrary index order."""
        idx, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return 0.0
        return sign * self.coeffs.get(idx, 0.0)

    def __getitem__(self, indices) -> float:
        if self.degree == 0:
            return self.coeffs.get((), 0.0) if indices == () else 0.0
        if isinstance(indices, int):
            indices = (indices,)
        return self.component(indices)

    def terms(self):
        """Canonical (index tuple, coefficient) pairs in lexicographic order."""
        return sorted(self.coeffs.items())

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def covector_components(self) -> np.ndarray:
        if self.degree != 1:
            raise ValueError(f"not a covector: degree {self.degree}")
        return np.array([self.coeffs.get((i,), 0.0) for i in range(DIM)])

    def to_array(self) -> np.ndarray:
        """Dense fully antisymmetric component table, shape (8,)*k."""
        if self.degree == 0:
            return np.array(self.coeffs.get((), 0.0))
        arr = np.zeros((DIM,) * self.degree)
        for idx, c in self.coeffs.items():
            for perm in permutations(idx):
                _, sign = sort_with_sign(perm)
                arr[perm] = sign * c
        return arr

    # -- linear algebra -----------------------------------------------------

    def _require_same_degree(self, other: "KForm"):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "KForm") -> "KForm":
        self._require_same_degree(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return KForm(self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-1.0) * other

    def __neg__(self) -> "KForm":
        return (-1.0) * self

    def __mul__(self, scalar: float) -> "KForm":
        return KForm(self.degree, {idx: c * scalar for idx, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.degree}, 0)"
        parts = [f"{c:+g}*e{''.join(map(str, idx))}" for idx, c in self.terms()]
        return f"KForm({self.degree}, {' '.join(parts)})"


def residual(a: KForm, b: KForm) -> float:
    """Max-abs componentwise difference (components are signed coefficients)."""
    return (a - b).max_abs()


# ---------------------------------------------------------------------------
# index raising: canonical coefficients and dense tensors

def _minor_matrix(ginv: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of k x k minors of g^{-1} over canonical monomials.

    Raising an antisymmetric tensor is b^I = sum_J det(ginv[I, J]) b_J over
    canonical J; all C(8,k)^2 minors are one batched determinant.
    """
    idx = np.array(canonical_indices(degree), dtype=np.intp)
    return np.linalg.det(ginv[idx[:, None, :, None], idx[None, :, None, :]])


def raise_coeffs(a: KForm, m: FrameMetric) -> dict:
    """Canonical coefficients of the index-raised tensor a^I."""
    if m.is_identity:
        return dict(a.coeffs)
    idxs = canonical_indices(a.degree)
    pos = {idx: i for i, idx in enumerate(idxs)}
    vec = np.zeros(len(idxs))
    for idx, c in a.coeffs.items():
        vec[pos[idx]] = c
    raised = _minor_matrix(m.inv, a.degree) @ vec
    return {idx: raised[i] for i, idx in enumerate(idxs) if raised[i] != 0.0}


def raise_slots(arr: np.ndarray, m: FrameMetric, slots) -> np.ndarray:
    """Raise the given slots of a dense tensor with the inverse metric.

    One tensordot per slot, so the cost stays 8^(rank+1) per slot.  A
    tensordot against the exact identity is exact, so orthonormal frames
    keep their exact zeros without a special case.
    """
    for s in slots:
        arr = np.moveaxis(np.tensordot(arr, m.inv, axes=([s], [0])), -1, s)
    return arr


# ---------------------------------------------------------------------------
# operations

def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded-commutative with exact sign bookkeeping.

    Contributions to each output monomial are summed in an order that does
    not depend on the operand order, so a^b and +/-(b^a) are bit-identical.
    """
    degree = a.degree + b.degree
    if degree > DIM:
        raise ValueError(f"degree overflow: {a.degree} + {b.degree} > {DIM}")
    pending: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged, sign = merge_with_sign(ia, ib)
            if sign == 0:
                continue
            pending.setdefault(merged, []).append(sign * ca * cb)
    # fsum: accumulation is order-independent, so a^b == +/- b^a bit-exactly
    return KForm(degree, {m: math.fsum(parts) for m, parts in pending.items()})


def hodge_star(a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """Hodge dual with respect to the frame metric and orientation."""
    raised = raise_coeffs(a, m)
    scale = m.sqrt_det * m.orientation
    out: dict = {}
    for idx, c in raised.items():
        comp = complement(idx)
        _, sign = sort_with_sign(idx + comp)
        out[comp] = out.get(comp, 0.0) + sign * c * scale
    return KForm(DIM - a.degree, out)


def volume_form(m: FrameMetric = IDENTITY_METRIC) -> KForm:
    return hodge_star(KForm.scalar(1.0), m)


def interior_product(x, a: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """Contraction of a covector (index raised by g) into the first slot."""
    if a.degree == 0:
        raise ValueError("interior product of a degree-0 form")
    if isinstance(x, KForm):
        x = x.covector_components()
    x_up = raise_slots(np.asarray(x, dtype=float), m, (0,))
    out: dict = {}
    for idx, c in a.coeffs.items():
        for p, i in enumerate(idx):
            if x_up[i] == 0.0:
                continue
            rest = idx[:p] + idx[p + 1:]
            sign = -1.0 if p % 2 else 1.0
            out[rest] = out.get(rest, 0.0) + sign * x_up[i] * c
    return KForm(a.degree - 1, out)


def contract_into(alpha: KForm, beta: KForm, m: FrameMetric = IDENTITY_METRIC) -> KForm:
    """(1/p!) alpha^{A} beta_{A J}: a p-form contracted into a q-form, p <= q.

    For p = 1 this is the ordinary interior product.
    """
    if alpha.degree > beta.degree:
        raise ValueError("contraction degree exceeds target degree")
    raised = raise_coeffs(alpha, m)
    out: dict = {}
    for ia, ca in raised.items():
        sa = set(ia)
        for ib, cb in beta.coeffs.items():
            if not sa.issubset(ib):
                continue
            rest = tuple(i for i in ib if i not in sa)
            _, sign = sort_with_sign(ia + rest)
            out[rest] = out.get(rest, 0.0) + sign * ca * cb
    return KForm(beta.degree - alpha.degree, out)


def full_contraction(a: KForm, b: KForm, m: FrameMetric = IDENTITY_METRIC) -> float:
    """a_I b^I summed over ALL index tuples (no 1/k! factor)."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    raised = raise_coeffs(b, m)
    acc = sum(c * raised.get(idx, 0.0) for idx, c in a.coeffs.items())
    return math.factorial(a.degree) * acc


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


def form_from_dict(d: dict) -> KForm:
    degree = int(d["degree"])
    coeffs: dict = {}
    for term in d["terms"]:
        idx = validate_multi_index(term["idx"], degree)
        if idx in coeffs:
            raise ValueError(f"duplicate multi-index {idx} in serialized form")
        c = float(term["c"])
        if not math.isfinite(c):
            raise ValueError(f"coefficient of multi-index {idx} is not finite: {c!r}")
        coeffs[idx] = c
    return KForm(degree, coeffs)


def form_from_json(text: str) -> KForm:
    return form_from_dict(json.loads(text))
