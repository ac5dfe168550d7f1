"""Brute-force dense tensor oracle for cross-validating the sparse pipeline.

Everything here works on full 8^k component tables and recomputes signs,
shuffles and duals from first principles, deliberately sharing no logic
with the vector implementation in ``forms``.  Intended for tests.

The Hodge star sums over one table of all 8! permutations of the frame
indices, built once on first use by inserting each index into every
position of the permutations of the smaller ones.  Each row's sign comes
from counting its cycles, a third way of computing a sign next to
``parity``'s selection sort and the inversion count in ``forms``.  Per
degree k, a second table built once from it groups the 8! rows by tail:
column t holds, in 8!-table order, the flat index of the first k entries
and the sign of the k! permutations whose last 8 - k entries are the t-th
distinct tail.  The star gathers the signed terms into that C-ordered
(k!, 8!/k!) shape, adds its rows in order by one axis-0 reduction (degree
8's single column by an accumulation), applies 1/k! and sqrt(det g), and
scatters the sums into the 8^(8-k) output, whose zero fill bounds the
degree-1 star.  Indices are raised by one matmul per slot.  The wedge is
the shuffle sum over transposed views of a (x) b, and ``dense_components``
scatters each coefficient onto the flat index of every reordering of its
index tuple at once: the reorderings of range(k) are the table's last k!
rows, which fix k..7.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

DIM = 8


def parity(seq) -> int:
    """Permutation sign by selection-sort swap counting; 0 on repeats."""
    items = list(seq)
    if len(set(items)) != len(items):
        return 0
    sign = 1
    for i in range(len(items)):
        m = min(range(i, len(items)), key=items.__getitem__)
        if m != i:
            items[i], items[m] = items[m], items[i]
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _permutation_table() -> tuple[np.ndarray, np.ndarray]:
    """All 8! permutations of range(8) as int8 rows, and their signs.

    Row r maps i to perms[r, i].  The sign is (-1)^(8 - cycles); i starts
    a cycle when it is the smallest index on its orbit.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for n in range(DIM):
        perms = np.concatenate([np.insert(perms, pos, n, axis=1) for pos in range(n + 1)])
    orbit_min = np.broadcast_to(np.arange(DIM, dtype=np.int8), perms.shape)
    image = perms
    for _ in range(DIM - 1):
        orbit_min = np.minimum(orbit_min, image)
        image = np.take_along_axis(perms, image, axis=1)
    cycles = np.count_nonzero(orbit_min == np.arange(DIM), axis=1)
    signs = np.where((DIM - cycles) % 2 == 0, 1, -1).astype(np.int8)
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def _flat_index(columns: np.ndarray) -> np.ndarray:
    """Row-major flat index into an 8^m table of each row of an (n, m) array."""
    return columns @ DIM ** np.arange(columns.shape[1] - 1, -1, -1, dtype=np.intp)


@lru_cache(maxsize=None)
def _reorderings(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k! permutations of range(k) (the 8! table's last rows), their signs and place values.

    places[i, r] = 8^(k-1-j) where reordering r puts i at position j: idx @ places flattens them.
    """
    perms, signs = _permutation_table()
    n = math.factorial(k)
    places = (DIM ** (k - 1 - np.argsort(perms[-n:, :k], axis=1))).T
    places.setflags(write=False)
    return perms[-n:, :k], signs[-n:], places


def dense_components(form) -> np.ndarray:
    """Full 8^k component table of a sparse form."""
    k, n = form.degree, len(form.coeffs)
    idx = np.fromiter(chain.from_iterable(form.coeffs), dtype=np.intp, count=n * k).reshape(n, k)
    vals = np.fromiter(form.coeffs.values(), dtype=float, count=n)
    _, signs, places = _reorderings(k)
    out = np.zeros(DIM ** k)
    out[idx @ places] = vals[:, None] * signs
    return out.reshape((DIM,) * k)


def dense_wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge product via the (k,l)-shuffle sum on full component tables."""
    k = a.ndim if a.shape != () else 0
    l = b.ndim if b.shape != () else 0
    if k + l > DIM:
        raise ValueError("degree overflow")
    if k == 0:
        return float(a) * b
    if l == 0:
        return float(b) * a
    ab = np.multiply.outer(a, b)
    out = np.zeros((DIM,) * (k + l))
    positions = list(range(k + l))
    for first in combinations(positions, k):
        rest = tuple(p for p in positions if p not in first)
        # axis first[i] of the term reads axis i of a (x) b, axis rest[j] axis k + j
        term = ab.transpose(np.argsort(first + rest))
        if parity(first + rest) > 0:
            out += term
        else:
            out -= term
    return out


def _raise_all(a: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    out = a
    for s in range(a.ndim):
        out = (out.swapaxes(s, -1) @ ginv).swapaxes(s, -1)
    return out


@lru_cache(maxsize=None)
def _star_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree k's 8! table grouped by tail, read-only.

    Column t lists, in 8!-table order, the k! permutations P whose tail
    P[k:] is the t-th of the 8!/k! distinct tails: the flat index of each
    head P[:k] and each sign (int8), both C-ordered of shape (k!, 8!/k!);
    and the flat index of each distinct tail, ascending.  Indices are intp,
    so that no gather or scatter converts them.
    """
    perms, signs = _permutation_table()
    tail = _flat_index(perms[:, k:])
    # each tail occurs k! times; a stable sort keeps table order within it
    rows = np.ascontiguousarray(np.argsort(tail, kind="stable").reshape(-1, math.factorial(k)).T)
    tables = (_flat_index(perms[:, :k])[rows], signs[rows], tail[rows[0]])
    for x in tables:
        x.setflags(write=False)
    return tables


def dense_star(a: np.ndarray, g: np.ndarray | None = None, orientation: int = 1) -> np.ndarray:
    """Hodge dual on dense tables: (*a)_J = (1/k!) a^I eps_{IJ} sqrt(det g).

    Every permutation P of range(8) adds sign(P) a^{P[:k]} to (*a)_{P[k:]}.
    The sums run over the 8!/k! tails that occur, in permutation order, and
    are divided by k! and scaled before they are placed in the 8^(8-k) table.
    """
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation!r}")
    k = a.ndim if a.shape != () else 0
    raised, scale = np.asarray(a, dtype=float), float(orientation)
    if g is not None:
        g = np.asarray(g, dtype=float)
        raised = _raise_all(raised, np.linalg.inv(g))
        scale = math.sqrt(np.linalg.det(g)) * orientation
    head, sign, tails = _star_table(k)
    terms = sign * raised.ravel()[head]
    # rows added in table order from 0.0 (so -0.0 becomes +0.0); reduce sums degree 8's pairwise
    sums = (np.add.accumulate(np.append(0.0, terms))[-1:] if k == DIM
            else np.add.reduce(terms, axis=0, initial=0.0))
    if k > 1:  # dividing by 1 and multiplying by 1.0 are exact: skipped
        sums /= math.factorial(k)
    if scale != 1.0:
        sums *= scale
    out = np.zeros(DIM ** (DIM - k))
    out[tails] = sums
    return out.reshape((DIM,) * (DIM - k))


def dense_full_contraction(a: np.ndarray, b: np.ndarray, g: np.ndarray | None = None) -> float:
    """Sum a_I b^I over every index tuple of two tables of the same degree."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"degree mismatch: {np.ndim(a)} vs {np.ndim(b)}")
    if g is None:
        return float(np.sum(a * b))
    return float(np.sum(a * _raise_all(b, np.linalg.inv(g))))
