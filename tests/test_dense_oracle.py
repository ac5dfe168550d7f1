"""Sparse pipeline against the brute-force dense oracle."""

import ast
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import spin7.dense
from spin7.dense import (
    _flat_index,
    _permutation_table,
    _raise_all,
    _reorderings,
    _star_table,
    dense_components,
    dense_full_contraction,
    dense_star,
    dense_wedge,
    parity,
)
from spin7.forms import (
    FrameMetric,
    KForm,
    canonical_indices,
    full_contraction,
    hodge_star,
    norm_sq,
    wedge,
)
from spin7.structure import canonical_phi_form

N_SWEEP = 100


def random_form(rng, degree, sparsity=0.6):
    coeffs = {idx: rng.standard_normal()
              for idx in canonical_indices(degree) if rng.random() <= sparsity}
    return KForm(degree, coeffs)


def canonical_entries(arr):
    k = arr.ndim
    return {idx: arr[idx] for idx in canonical_indices(k)}


def test_parity_agrees_with_lookup():
    assert parity((0, 1, 2)) == 1
    assert parity((1, 0, 2)) == -1
    assert parity((1, 1)) == 0
    assert parity(tuple(range(8))) == 1


def test_dense_components_of_monomial():
    arr = dense_components(KForm.monomial((0, 1)))
    assert np.count_nonzero(arr) == 2
    assert arr[0, 1] == 1.0 and arr[1, 0] == -1.0


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_dense_components_antisymmetric_everywhere(degree, rng):
    arr = dense_components(random_form(rng, degree))
    if degree < 2:
        return
    swapped = np.swapaxes(arr, 0, 1)
    assert np.array_equal(arr, -swapped)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_sparse_dense_round_trip_sweep(degree, rng):
    for _ in range(N_SWEEP):
        f = random_form(rng, degree)
        assert np.max(np.abs(dense_components(KForm.from_array(dense_components(f)))
                             - dense_components(f))) == 0.0


@pytest.mark.parametrize("ka,kb", [(1, 1), (1, 2), (2, 2), (1, 3), (0, 4)])
def test_wedge_oracle_sweep(ka, kb, rng):
    for _ in range(N_SWEEP):
        a, b = random_form(rng, ka), random_form(rng, kb)
        via_sparse = dense_components(wedge(a, b))
        via_dense = dense_wedge(dense_components(a), dense_components(b))
        assert np.max(np.abs(via_sparse - via_dense)) < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_star_oracle_identity_metric_sweep(degree, rng):
    for _ in range(N_SWEEP):
        f = random_form(rng, degree)
        sparse = hodge_star(f)
        dense = dense_star(dense_components(f))
        for idx, val in canonical_entries(dense).items():
            assert abs(val - sparse.coeffs.get(idx, 0.0)) < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_star_oracle_general_metric(degree, rng):
    for _ in range(10):
        a = rng.standard_normal((8, 8))
        g = a @ a.T + 8.0 * np.eye(8)
        m = FrameMetric(g)
        f = random_form(rng, degree)
        sparse = hodge_star(f, m)
        dense = dense_star(dense_components(f), g)
        for idx, val in canonical_entries(dense).items():
            assert abs(val - sparse.coeffs.get(idx, 0.0)) < 1e-10


def test_star_oracle_on_canonical_phi():
    phi = dense_components(canonical_phi_form())
    assert np.max(np.abs(dense_star(phi) - phi)) == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_full_contraction_oracle(degree, rng):
    for _ in range(25):
        a, b = random_form(rng, degree), random_form(rng, degree)
        g = None
        assert abs(full_contraction(a, b)
                   - dense_full_contraction(dense_components(a), dense_components(b), g)) < 1e-10
        q = rng.standard_normal((8, 8))
        g = q @ q.T + 8.0 * np.eye(8)
        assert abs(full_contraction(a, b, FrameMetric(g))
                   - dense_full_contraction(dense_components(a), dense_components(b), g)) < 1e-9


def test_norm_convention_brute_force():
    # the torsion of the product example has squared norm 12 under the
    # all-tuples contraction; this is what pins the norm convention
    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    arr = dense_components(t)
    assert float(np.sum(arr * arr)) == 12.0
    assert norm_sq(t) == 12.0


def test_permutation_table_signs_match_parity():
    perms, signs = _permutation_table()
    assert perms.dtype == signs.dtype == np.int8
    assert len({row.tobytes() for row in perms}) == len(perms) == 40320
    assert np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(8), perms.shape))
    assert [parity(row) for row in perms.tolist()] == signs.tolist()


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_star_of_every_monomial_is_signed_complement(degree):
    for idx in combinations(range(8), degree):
        rest = tuple(i for i in range(8) if i not in idx)
        expected = parity(idx + rest) * dense_components(KForm.monomial(rest))
        assert np.array_equal(dense_star(dense_components(KForm.monomial(idx))), expected), idx


def test_components_and_wedge_match_index_loops():
    # the per-index definitions, evaluated one tuple at a time; same
    # arithmetic in the same order, so the results are bit-identical
    rng = np.random.default_rng(7)
    c = random_form(rng, 3)
    dc = dense_components(c)
    for idx in product(range(8), repeat=3):
        assert dc[idx] == parity(idx) * c.coeffs.get(tuple(sorted(idx)), 0.0), idx
    da, db = dense_components(random_form(rng, 2)), dense_components(random_form(rng, 2))
    shuffles = [(first, tuple(p for p in range(4) if p not in first))
                for first in combinations(range(4), 2)]
    loop = np.zeros((8,) * 4)
    for idx in product(range(8), repeat=4):
        total = 0.0
        for first, rest in shuffles:
            total += (parity(first + rest) * da[tuple(idx[p] for p in first)]
                      * db[tuple(idx[p] for p in rest)])
        loop[idx] = total
    assert np.array_equal(dense_wedge(da, db), loop)


def test_dense_imports_nothing_from_spin7():
    tree = ast.parse(Path(spin7.dense.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "spin7" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "spin7", node.module


def spd_metric(seed):
    q = np.random.default_rng(seed).standard_normal((8, 8))
    return q @ q.T + 8.0 * np.eye(8)


def reference_raise_all(a, ginv):
    """Every slot raised by tensordot, which moves the contracted axis last."""
    out = a
    for _ in range(a.ndim):
        out = np.tensordot(out, ginv, axes=([0], [0]))
    return out


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_raise_all_matches_tensordot_byte_for_byte(degree):
    rng = np.random.default_rng(400 + degree)
    a = rng.standard_normal((8,) * degree)
    ginv = np.linalg.inv(spd_metric(500 + degree))
    got, want = _raise_all(a, ginv), reference_raise_all(a, ginv)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def raised_and_scale(a, g, orientation):
    k = a.ndim if a.shape != () else 0
    if g is None:
        return np.asarray(a, dtype=float), float(orientation)
    g = np.asarray(g, dtype=float)
    raised = reference_raise_all(np.asarray(a, dtype=float), np.linalg.inv(g)) if k else np.asarray(a, dtype=float)
    return raised, math.sqrt(np.linalg.det(g)) * orientation


def column_loop_star(a, g=None, orientation=1):
    """The star's group sums over the (8!/k!, k!) table, columns added left to right."""
    k = a.ndim if a.shape != () else 0
    raised, scale = raised_and_scale(a, g, orientation)
    head, sign, tails = _star_table(k)
    head, sign = head.T, sign.T
    terms = sign * raised.ravel()[head]
    sums = terms[:, 0] + 0.0
    for j in range(1, terms.shape[1]):
        sums += terms[:, j]
    sums /= math.factorial(k)
    sums *= scale
    out = np.zeros(8 ** (8 - k))
    out[tails] = sums
    return out.reshape((8,) * (8 - k))


def reference_star(a, g=None, orientation=1):
    """The star summed into all 8^(8-k) bins, then divided and scaled over the whole table."""
    k = a.ndim if a.shape != () else 0
    raised, scale = raised_and_scale(a, g, orientation)
    perms, signs = _permutation_table()
    weights = signs * raised.ravel()[_flat_index(perms[:, :k])]
    out = np.bincount(_flat_index(perms[:, k:]), weights, minlength=8 ** (8 - k))
    out /= math.factorial(k)
    out *= scale
    return out.reshape((8,) * (8 - k))


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("degree,metric", [
    # raising all eight slots of an 8^8 table takes ~1 s and ~400 MB per call,
    # so degree 8 runs under the identity only
    (k, m) for k in range(1, 9) for m in ("identity", "spd") if (k, m) != (8, "spd")])
def test_star_matches_the_full_table_reference_bit_for_bit(degree, metric, orientation):
    # the group sums add the same products in the same order as the full bincount
    # and as the column loop, and 1/k! and the scale are the same elementwise operations
    a = dense_components(random_form(np.random.default_rng(degree), degree, 1.0))
    g = spd_metric(10 + degree) if metric == "spd" else None
    got, want = dense_star(a, g, orientation), reference_star(a, g, orientation)
    assert got.shape == want.shape
    nonzero = want != 0.0
    assert np.count_nonzero(nonzero) == 40320 // math.factorial(degree)
    assert np.array_equal(got != 0.0, nonzero)
    assert got[nonzero].tobytes() == want[nonzero].tobytes()
    # the whole table, signed zeros included: a sparse form's star also has sums of zeros
    sparse = dense_components(random_form(np.random.default_rng(20 + degree), degree, 0.3))
    for x in (a, sparse):
        assert dense_star(x, g, orientation).tobytes() == column_loop_star(x, g, orientation).tobytes()


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_star_squares_to_the_degree_sign_under_a_metric(degree):
    # ** = (-1)^(k(8-k)) = (-1)^k on k-forms in dimension eight
    rng = np.random.default_rng(100 + degree)
    g = spd_metric(200 + degree)
    a = dense_components(random_form(rng, degree))
    twice = dense_star(dense_star(a, g), g)
    assert np.max(np.abs(twice - (-1) ** degree * a)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_star_tables_are_read_only_and_built_once(monkeypatch):
    a = dense_components(KForm.monomial((0, 3, 5)))
    first = dense_star(a)
    calls = []
    monkeypatch.setattr(spin7.dense, "_flat_index",
                        lambda cols: calls.append(cols.shape) or _flat_index(cols))
    for g in (None, spd_metric(3)):
        dense_star(a, g)
        dense_star(a, g, orientation=-1)
    assert calls == []
    assert np.array_equal(dense_star(a), first)
    head, sign, tails = _star_table(3)
    assert _star_table(3)[0] is head
    for x in (head, sign, tails):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0
    assert head.dtype == tails.dtype == np.intp and sign.dtype == np.int8
    # C order: the star's axis-0 reduction then adds row after row, in table order
    assert head.shape == sign.shape == (math.factorial(3), 40320 // math.factorial(3))
    assert head.flags.c_contiguous and sign.flags.c_contiguous
    assert len(tails) == head.shape[1]
    assert np.all(np.diff(tails) > 0)


def reference_components(form):
    """The full table written through a k-tuple fancy index, one axis per slot."""
    k = form.degree
    if k == 0:
        return np.array(form.coeffs.get((), 0.0))
    arr = np.zeros((8,) * k)
    idx = np.array(list(form.coeffs), dtype=np.intp).reshape(-1, k)
    vals = np.array(list(form.coeffs.values()), dtype=float)
    orders, signs, _ = _reorderings(k)
    arr[tuple(np.moveaxis(idx[:, orders], -1, 0))] = vals[:, None] * signs
    return arr


@pytest.mark.parametrize("degree", range(8))
def test_components_match_the_tuple_scatter_byte_for_byte(degree):
    rng = np.random.default_rng(300 + degree)
    forms = [random_form(rng, degree), random_form(rng, degree, 1.0), KForm(degree, {})]
    if degree:
        forms.append(wedge(random_form(rng, 1), random_form(rng, degree - 1)))
    for f in forms:
        got, want = dense_components(f), reference_components(f)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(9))
def test_reorderings_are_the_last_rows_of_the_permutation_table(k):
    perms, signs = _permutation_table()
    keep = np.all(perms[:, k:] == np.arange(k, 8), axis=1)
    orders, order_signs, places = _reorderings(k)
    assert np.array_equal(orders, perms[keep, :k]) and np.array_equal(order_signs, signs[keep])
    assert not places.flags.writeable
    assert np.array_equal(np.arange(k) @ places, _flat_index(orders))


def test_full_contraction_refuses_tables_of_different_degree():
    e0, e01 = dense_components(KForm.monomial((0,))), dense_components(KForm.monomial((0, 1)))
    for a, b, g in ((e0, e01, None), (e01, e0, None), (e0, e01, spd_metric(4))):
        with pytest.raises(ValueError, match=f"degree mismatch: {a.ndim} vs {b.ndim}"):
            dense_full_contraction(a, b, g)
    with pytest.raises(ValueError, match="degree mismatch: 0 vs 1"):
        dense_full_contraction(np.array(2.0), e0)
    with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
        full_contraction(KForm.monomial((0,)), KForm.monomial((0, 1)))


@pytest.mark.parametrize("orientation", [0, 2, -2, 0.5])
def test_star_refuses_an_orientation_other_than_plus_or_minus_one(orientation):
    a = dense_components(KForm.monomial((0, 3, 5)))
    for g in (None, spd_metric(5)):
        with pytest.raises(ValueError, match="orientation must be"):
            dense_star(a, g, orientation)
    with pytest.raises(ValueError, match="orientation must be"):
        FrameMetric(np.eye(8), orientation=orientation)
