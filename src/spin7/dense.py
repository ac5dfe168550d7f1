"""Brute-force dense tensor oracle for cross-validating the sparse pipeline.

Everything here works on full 8^k component tables and recomputes signs,
shuffles and duals from first principles, deliberately sharing no logic
with the vector implementation in ``forms``.  Intended for tests.

The Hodge star sums over one table of all 8! permutations of the frame
indices, built once on first use by inserting each index into every
position of the permutations of the smaller ones.  Each row's sign comes
from counting its cycles, a third way of computing a sign next to
``parity``'s selection sort and the inversion count in ``forms``.  The
wedge is the shuffle sum over transposed views of a (x) b, and
``dense_components`` scatters each coefficient onto every reordering of
its index tuple at once, the reorderings of range(k) being the rows of the
table that fix k..7.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

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
    flat = np.zeros(len(columns), dtype=np.intp)
    for j in range(columns.shape[1]):
        flat *= DIM
        flat += columns[:, j]
    return flat


@lru_cache(maxsize=None)
def _reorderings(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k) and their signs: the rows of the 8! table fixing k..7."""
    perms, signs = _permutation_table()
    keep = np.all(perms[:, k:] == np.arange(k, DIM), axis=1)
    return perms[keep, :k], signs[keep]


def dense_components(form) -> np.ndarray:
    """Full 8^k component table of a sparse form."""
    k = form.degree
    if k == 0:
        return np.array(form.coeffs.get((), 0.0))
    arr = np.zeros((DIM,) * k)
    idx = np.array(list(form.coeffs), dtype=np.intp).reshape(-1, k)
    vals = np.array(list(form.coeffs.values()), dtype=float)
    orders, signs = _reorderings(k)
    # idx[:, orders][n, r] is reordering r of index tuple n
    arr[tuple(np.moveaxis(idx[:, orders], -1, 0))] = vals[:, None] * signs
    return arr


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
    k = a.ndim
    out = a
    for axis in range(k):
        out = np.tensordot(out, ginv, axes=([0], [0]))
    # tensordot cycles axes; after k passes the original order is restored
    return out


def dense_star(a: np.ndarray, g: np.ndarray | None = None, orientation: int = 1) -> np.ndarray:
    """Hodge dual on dense tables: (*a)_J = (1/k!) a^I eps_{IJ} sqrt(det g).

    Every permutation P of range(8) adds sign(P) a^{P[:k]} to (*a)_{P[k:]}.
    """
    k = a.ndim if a.shape != () else 0
    if g is None:
        raised = np.asarray(a, dtype=float)
        scale = float(orientation)
    else:
        g = np.asarray(g, dtype=float)
        raised = _raise_all(np.asarray(a, dtype=float), np.linalg.inv(g)) if k else np.asarray(a, dtype=float)
        scale = math.sqrt(np.linalg.det(g)) * orientation
    perms, signs = _permutation_table()
    weights = signs * raised.ravel()[_flat_index(perms[:, :k])]
    out = np.bincount(_flat_index(perms[:, k:]), weights, minlength=DIM ** (DIM - k))
    out /= math.factorial(k)
    out *= scale
    return out.reshape((DIM,) * (DIM - k))


def dense_full_contraction(a: np.ndarray, b: np.ndarray, g: np.ndarray | None = None) -> float:
    """Sum a_I b^I over every index tuple."""
    if g is None:
        return float(np.sum(a * b))
    return float(np.sum(a * _raise_all(b, np.linalg.inv(g))))
