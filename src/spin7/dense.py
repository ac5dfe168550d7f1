"""Brute-force dense tensor oracle for cross-validating the sparse pipeline.

Everything here works on full 8^k component tables and recomputes signs,
shuffles and duals from first principles, deliberately sharing no logic
with the sparse implementation in ``forms``.  Intended for tests; dense
tables are only reasonable for k <= 4 (8^4 = 4096 entries).
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

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


def dense_components(form) -> np.ndarray:
    """Full 8^k component table of a sparse form."""
    k = form.degree
    if k == 0:
        return np.array(form.coeffs.get((), 0.0))
    arr = np.zeros((DIM,) * k)
    for idx in product(range(DIM), repeat=k):
        sign = parity(idx)
        if sign == 0:
            continue
        arr[idx] = sign * form.coeffs.get(tuple(sorted(idx)), 0.0)
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
    out = np.zeros((DIM,) * (k + l))
    positions = list(range(k + l))
    shuffles = []
    for first in combinations(positions, k):
        rest = tuple(p for p in positions if p not in first)
        shuffles.append((first, rest, parity(first + rest)))
    for idx in product(range(DIM), repeat=k + l):
        total = 0.0
        for first, rest, sign in shuffles:
            total += sign * a[tuple(idx[p] for p in first)] * b[tuple(idx[p] for p in rest)]
        out[idx] = total
    return out


def _raise_all(a: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    k = a.ndim
    out = a
    for axis in range(k):
        out = np.tensordot(out, ginv, axes=([0], [0]))
    # tensordot cycles axes; after k passes the original order is restored
    return out


def dense_star(a: np.ndarray, g: np.ndarray | None = None, orientation: int = 1) -> np.ndarray:
    """Hodge dual on dense tables: (*a)_J = (1/k!) a^I eps_{IJ} sqrt(det g)."""
    k = a.ndim if a.shape != () else 0
    if g is None:
        raised = np.asarray(a, dtype=float)
        scale = float(orientation)
    else:
        g = np.asarray(g, dtype=float)
        raised = _raise_all(np.asarray(a, dtype=float), np.linalg.inv(g)) if k else np.asarray(a, dtype=float)
        scale = math.sqrt(np.linalg.det(g)) * orientation
    kk = DIM - k
    if kk == 0:
        total = 0.0
        for idx in permutations(range(DIM)):
            total += raised[idx] * parity(idx)
        return np.array(total * scale / math.factorial(k))
    out = np.zeros((DIM,) * kk)
    for J in combinations(range(DIM), kk):
        rest = tuple(i for i in range(DIM) if i not in J)
        total = 0.0
        if k == 0:
            total = float(raised) * parity(J)
        else:
            for I in permutations(rest):
                total += raised[I] * parity(I + J)
            total /= math.factorial(k)
        val = total * scale
        if val == 0.0:
            continue
        for Jp in permutations(J):
            out[Jp] = parity(Jp) * val
    return out


def dense_full_contraction(a: np.ndarray, b: np.ndarray, g: np.ndarray | None = None) -> float:
    """Sum a_I b^I over every index tuple."""
    if g is None:
        return float(np.sum(a * b))
    return float(np.sum(a * _raise_all(b, np.linalg.inv(g))))
