"""Exterior algebra core: wedge, star, interior product, contraction."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operator_references import (
    _laplace_table,
    compound_matrix,
    reference_star,
    star_interior_identities_check,
)
from spin7.forms import (
    FrameMetric,
    IDENTITY_METRIC,
    KForm,
    canonical_indices,
    contract_into,
    form_from_dict,
    form_from_json,
    form_to_json,
    full_contraction,
    hodge_star,
    interior_product,
    norm_sq,
    raise_all,
    residual,
    sort_with_sign,
    volume_form,
    wedge,
)
from spin7 import forms, liealgebra, structure
from spin7.forms import read_json
from spin7.structure import canonical_phi_form


def random_form(rng, degree, sparsity=1.0):
    idxs = canonical_indices(degree)
    coeffs = {}
    for idx in idxs:
        if rng.random() <= sparsity:
            coeffs[idx] = rng.standard_normal()
    return KForm(degree, coeffs)


def random_spd_metric(rng):
    a = rng.standard_normal((8, 8))
    return FrameMetric(a @ a.T + 8.0 * np.eye(8))


# ---------------------------------------------------------------------------
# multi-index helpers

@pytest.mark.parametrize("seq,expected", [
    ((0, 1, 2), ((0, 1, 2), 1)),
    ((1, 0), ((0, 1), -1)),
    ((2, 0, 1), ((0, 1, 2), 1)),
    ((1, 1), ((1, 1), 0)),
])
def test_sort_with_sign(seq, expected):
    assert sort_with_sign(seq) == expected


# ---------------------------------------------------------------------------
# KForm basics

def test_component_access_signs_and_repeats():
    f = KForm.monomial((0, 1))
    assert f[(0, 1)] == 1.0
    assert f[(1, 0)] == -1.0
    assert f[(0, 0)] == 0.0
    assert f[(2, 3)] == 0.0


def test_zero_coefficients_are_not_stored():
    f = KForm(2, {(0, 1): 1.0, (2, 3): 0.0})
    assert (2, 3) not in f.coeffs
    g = f - f
    assert g.coeffs == {}


def test_monomial_normalizes_order():
    assert KForm.monomial((1, 0)).coeffs == {(0, 1): -1.0}


def test_invalid_multi_index_rejected():
    with pytest.raises(ValueError):
        KForm(2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        KForm(2, {(0, 1, 2): 1.0})
    with pytest.raises(ValueError):
        KForm(1, {(9,): 1.0})


@pytest.mark.parametrize("degree,idx", [
    (2, (0.9, 1.5)),                # int() read it as (0, 1)
    (1, ("3",)),                    # int() parsed it as (3,)
    (1, (np.float64(3.7),)),        # int() read it as (3,)
    (2, (True, 2)),                 # int() read it as (1, 2); it also equals (1, 2) as a key
    (2, (1.0, 2.0)),                # equal to (1, 2) as a key
])
def test_kform_refuses_multi_index_entries_that_are_not_integers(degree, idx):
    with pytest.raises(ValueError, match=f"multi-index {re.escape(repr(idx))} has an entry"):
        KForm(degree, {idx: 1.0})


def test_kform_accepts_numpy_integer_multi_indices():
    got = KForm(2, {(np.int64(1), np.int32(2)): 1.0, (np.intp(0), 3): -2.0})
    assert got == KForm(2, {(1, 2): 1.0, (0, 3): -2.0})
    assert got.coeffs == {(0, 3): -2.0, (1, 2): 1.0}


# ---------------------------------------------------------------------------
# wedge

def test_wedge_basis_monomials():
    e0, e1 = KForm.basis_covector(0), KForm.basis_covector(1)
    assert wedge(e0, e1).coeffs == {(0, 1): 1.0}
    e01 = KForm.monomial((0, 1))
    assert wedge(e01, e01).coeffs == {}


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(canonical_phi_form(), KForm.monomial((0, 1, 2, 3, 4)))


def test_phi_wedge_phi_is_14_volumes():
    assert wedge(canonical_phi_form(), canonical_phi_form()).coeffs == {
        tuple(range(8)): 14.0}


@given(st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_wedge_graded_commutative(ka, kb, pyrng):
    rng = np.random.default_rng(pyrng.randint(0, 2**32 - 1))
    a, b = random_form(rng, ka, 0.5), random_form(rng, kb, 0.5)
    lhs = wedge(a, b)
    rhs = ((-1.0) ** (ka * kb)) * wedge(b, a)
    assert lhs.coeffs == rhs.coeffs  # sign bookkeeping is exact


def test_wedge_associative(rng):
    a, b, c = (random_form(rng, k, 0.7) for k in (1, 2, 1))
    assert residual(wedge(wedge(a, b), c), wedge(a, wedge(b, c))) < 1e-12


def test_wedge_bilinear(rng):
    a, b, c = random_form(rng, 2), random_form(rng, 2), random_form(rng, 2)
    lhs = wedge(a + 2.0 * b, c)
    rhs = wedge(a, c) + 2.0 * wedge(b, c)
    assert residual(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# hodge star

def test_star_of_one_is_volume():
    assert hodge_star(KForm.scalar(1.0)).coeffs == {tuple(range(8)): 1.0}


def test_star_monomial_complement():
    assert hodge_star(KForm.monomial((0, 1, 2, 3))).coeffs == {(4, 5, 6, 7): 1.0}


def test_star_canonical_phi_self_dual():
    phi = canonical_phi_form()
    assert residual(hodge_star(phi), phi) == 0.0


def test_orientation_flips_star():
    m = FrameMetric(np.eye(8), orientation=-1)
    assert hodge_star(KForm.scalar(1.0), m).coeffs == {tuple(range(8)): -1.0}


@pytest.mark.parametrize("degree", range(0, 9))
def test_double_star_sign(degree, rng):
    # in dimension eight ** is +1 on even degrees and -1 on odd ones
    a = random_form(rng, degree)
    m = random_spd_metric(rng)
    expect = ((-1.0) ** degree) * a
    assert residual(hodge_star(hodge_star(a, m), m), expect) < 1e-10


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_pairing_identity_relates_contractions(degree, rng):
    # a ^ *b = (1/k!) <a, b> vol for same-degree forms
    a, b = random_form(rng, degree), random_form(rng, degree)
    m = random_spd_metric(rng)
    lhs = wedge(a, hodge_star(b, m))
    scale = full_contraction(a, b, m) / math.factorial(degree)
    assert residual(lhs, scale * volume_form(m)) < 1e-10


# ---------------------------------------------------------------------------
# interior product and contractions

def test_interior_product_basic():
    e01 = KForm.monomial((0, 1))
    assert interior_product(KForm.basis_covector(0), e01).coeffs == {(1,): 1.0}
    assert interior_product(KForm.basis_covector(2), e01).coeffs == {}


def test_interior_product_rejects_scalars():
    with pytest.raises(ValueError):
        interior_product(KForm.basis_covector(0), KForm.scalar(1.0))


def test_interior_product_antiderivation(rng):
    m = random_spd_metric(rng)
    x = KForm.covector(rng.standard_normal(8))
    a, b = random_form(rng, 2), random_form(rng, 2)
    lhs = interior_product(x, wedge(a, b), m)
    rhs = wedge(interior_product(x, a, m), b) + wedge(a, interior_product(x, b, m))
    assert residual(lhs, rhs) < 1e-12


def test_contraction_into_phi_is_42_identity(rng):
    # (x . phi)_{ijk} phi_{ijka} = -42 x_a for any covector: moving the free
    # index to the front of phi costs a 4-cycle, hence the sign
    phi = canonical_phi_form()
    x = rng.standard_normal(8)
    three = interior_product(KForm.covector(x), phi)
    back = contract_into(three, phi)  # carries 1/3!
    assert residual(back, (-42.0 / 6.0) * KForm.covector(x)) < 1e-12


def test_full_contraction_norms():
    assert norm_sq(KForm.monomial((1, 2, 3))) == 6.0
    t = KForm.monomial((1, 2, 3)) + KForm.monomial((4, 5, 6))
    assert norm_sq(t) == 12.0
    assert norm_sq(canonical_phi_form()) == 336.0


def test_full_contraction_degree_mismatch():
    with pytest.raises(ValueError):
        full_contraction(KForm.monomial((0,)), KForm.monomial((0, 1)))


def _contracted(alpha: KForm, beta: KForm, gi: np.ndarray) -> np.ndarray:
    """(1/p!) g^{a x} .. alpha_{x ..} beta_{a .. J} as one einsum over dense tables."""
    p, q = alpha.degree, beta.degree
    up, low, free = "abcd"[:p], "wxyz"[:p], "ijkl"[:q - p]
    subscripts = ",".join(u + w for u, w in zip(up, low)) + f",{low},{up}{free}->{free}"
    dense = np.einsum(subscripts, *[gi] * p, alpha.to_array(), beta.to_array(), optimize=True)
    return dense / math.factorial(p)


@pytest.mark.parametrize("p,q", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 4)])
def test_contractions_with_a_metric_match_their_einsum(p, q):
    rng = np.random.default_rng(100 * p + q)
    m = random_spd_metric(rng)
    alpha, beta = random_form(rng, p), random_form(rng, q)
    want = _contracted(alpha, beta, np.linalg.inv(m.g))
    if p == q:
        # all indices shared: full_contraction is p! times the (1/p!) contraction
        got = full_contraction(alpha, beta, m)
        assert abs(got - math.factorial(p) * want) <= 1e-12 * abs(math.factorial(p) * want)
    else:
        got = contract_into(alpha, beta, m).to_array()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# star/interior exchange identities

def test_star_interior_identities_monomial():
    rep = star_interior_identities_check(KForm.basis_covector(0), KForm.monomial((0, 1, 2)))
    assert rep.all_passed()
    assert rep.max_residual() == 0.0


def test_star_interior_identities_zero_covector():
    rep = star_interior_identities_check(
        KForm.covector(np.zeros(8)), canonical_phi_form())
    assert rep.max_residual() == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_star_interior_identities_random(degree, rng):
    alpha = KForm.covector(rng.standard_normal(8))
    beta = random_form(rng, degree)
    m = random_spd_metric(rng)
    rep = star_interior_identities_check(alpha, beta, m, tol=1e-10)
    assert rep.all_passed(), [e.check_id for e in rep.failed()]


def test_star_interior_identities_against_phi(rng):
    alpha = KForm.covector(rng.standard_normal(8))
    rep = star_interior_identities_check(alpha, canonical_phi_form())
    assert rep.max_residual() < 1e-12


# ---------------------------------------------------------------------------
# index raising

@pytest.mark.parametrize("degree", range(9))
def test_minor_matrix_matches_one_determinant_per_pair(degree):
    m = random_spd_metric(np.random.default_rng(degree))
    gi = m.inv
    idxs = canonical_indices(degree)
    loop = np.array([[np.linalg.det(gi[np.ix_(I, J)]) for J in idxs] for I in idxs])
    assert np.max(np.abs(compound_matrix(gi, degree) - loop)) <= 1e-15


@pytest.mark.parametrize("seed", [3, 4, 5, None], ids=["spd3", "spd4", "spd5", "identity"])
@pytest.mark.parametrize("degree", range(9))
def test_raise_all_is_the_compound_matrix_of_the_inverse(degree, seed):
    # the slot pull-back by g^-1 (by g and the star above degree 4) against the
    # k x k minors of g^-1; at the identity the form itself comes back
    m = IDENTITY_METRIC if seed is None else random_spd_metric(np.random.default_rng(seed))
    a = random_form(np.random.default_rng(60 + degree), degree)
    want = compound_matrix(m.inv, degree) @ a.vec
    got = raise_all(a, m)
    assert got.degree == degree
    assert np.max(np.abs(got.vec - want)) <= 5e-15 * np.max(np.abs(want))  # measured 1.2e-15
    if m is IDENTITY_METRIC:
        assert got is a


@pytest.mark.parametrize("scale", [1e-40, 1e-30, 1e-3, 1e3, 1e30, 1e38])
def test_raise_all_keeps_its_relative_error_at_any_scale(scale):
    # above degree 4 raising divides by sqrt(det g) twice, read off the Cholesky factor:
    # det g of the 1e-40 and 1e38 metrics leaves double range, and numpy's det,
    # exp(log det), loses digits as |log det g| grows
    m = FrameMetric(scale * random_spd_metric(np.random.default_rng(3)).g)
    for degree in range(8):  # C_8(g^-1) = 1/det g is itself out of range at 1e-40
        a = random_form(np.random.default_rng(70 + degree), degree)
        want = compound_matrix(m.inv, degree) @ a.vec
        # measured <= 1.3e-15; dividing by np.linalg.det read 2e-14 at 1e-30 and 1e30
        assert np.max(np.abs(raise_all(a, m).vec - want)) <= 5e-15 * np.max(np.abs(want)), degree


@pytest.mark.parametrize("degree", range(9))
def test_star_is_the_contraction_into_the_volume_form_bit_for_bit(degree):
    # the signed reversal gives the contraction's bytes, -0.0 turned +0.0 included,
    # at the identity, an SPD g, and both orientations
    g = random_spd_metric(np.random.default_rng(40 + degree)).g
    rng = np.random.default_rng(degree)
    for m in (IDENTITY_METRIC, FrameMetric(np.eye(8), -1), FrameMetric(g), FrameMetric(g, -1)):
        vec = random_form(rng, degree).vec.copy()
        vec[::3], vec[1::4] = 0.0, -0.0
        for a in (KForm.from_vector(degree, vec), -1.0 * KForm.from_vector(degree, vec),
                  KForm.zero(degree)):
            got, want = hodge_star(a, m), reference_star(a, m)
            assert got.degree == want.degree == 8 - degree
            assert got.vec.tobytes() == want.vec.tobytes(), (degree, m.orientation)


@pytest.mark.parametrize("orientation", [1, -1])
def test_no_contraction_builds_a_table_above_degree_four(orientation, monkeypatch):
    # raising pulls back a k-form only for k <= 4 and the complement above it,
    # so the 8^7 and 8^8 tables never appear
    m = FrameMetric(random_spd_metric(np.random.default_rng(7)).g, orientation)
    rng = np.random.default_rng(8)
    to_array, degrees = KForm.to_array, []

    def spy(form):
        degrees.append(form.degree)
        return to_array(form)

    monkeypatch.setattr(KForm, "to_array", spy)
    for k in range(9):
        a, b = random_form(rng, k), random_form(rng, k)
        hodge_star(a, m)
        full_contraction(a, b, m)
        for q in range(k, 9):
            contract_into(a, random_form(rng, q), m)
    assert degrees and max(degrees) <= 4


def broadcast_gather_compound(mat, degree):
    """The earlier Laplace step, kept as the reference: one broadcast (I, J, t) gather per factor."""
    out = np.ones((1, 1))
    for k in range(1, degree + 1):
        col, rest, sign = _laplace_table(k)
        out = (sign * mat[col[:, :1, None], col] * out[rest[:, :1, None], rest]).sum(axis=-1)
    return out


@pytest.mark.parametrize("degree", range(1, 9))
def test_compound_matrix_is_the_broadcast_gather_bit_for_bit(degree):
    # rows are gathered before columns; the result must come back C-ordered,
    # since BLAS rounds a raising with an F-ordered operand differently
    gi = random_spd_metric(np.random.default_rng(100 + degree)).inv
    got = compound_matrix(gi, degree)
    assert got.flags.c_contiguous
    assert got.tobytes() == broadcast_gather_compound(gi, degree).tobytes()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_frame_metric_rejects_a_non_finite_entry(value):
    g = np.eye(8)
    g[2, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        FrameMetric(g)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3, 1e150])
def test_frame_metric_symmetry_test_is_np_allclose(scale):
    # one comparison in place of np.allclose(g, g.T, atol=1e-14): every finite
    # table is accepted or refused as before, also right at the tolerance
    base = random_spd_metric(np.random.default_rng(9)).g * scale
    for i, j in [(0, 1), (1, 0), (5, 2)]:
        bound = 1e-14 + 1e-5 * abs(base[j, i])
        for factor in [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]:
            g = base.copy()
            g[i, j] += factor * bound
            try:
                FrameMetric(g)
                accepted = True
            except ValueError as exc:
                assert "symmetric" in str(exc)
                accepted = False
            assert accepted == np.allclose(g, g.T, atol=1e-14), (i, j, factor)


def signed_zero_vectors(degree):
    """Two seeded coefficient vectors holding +0.0 and -0.0 among random entries."""
    rng = np.random.default_rng(40 + degree)
    a, b = rng.standard_normal((2, math.comb(8, degree)))
    for v in (a, b):
        v[rng.random(v.shape) < 0.3] = 0.0
        v[rng.random(v.shape) < 0.3] = -0.0
    return KForm.from_vector(degree, a), KForm.from_vector(degree, b)


@pytest.mark.parametrize("degree", range(9))
def test_difference_negation_and_residual_are_the_sum_forms_bit_for_bit(degree):
    # a - b, -a and residual(a, b) once went through a + (-1.0) * b; IEEE 754
    # defines a - b as a + (-b), so the bytes must not move
    a, b = signed_zero_vectors(degree)
    for x, y in [(a, b), (b, a), (a, a), (a, -1.0 * a)]:
        old = x + (-1.0) * y
        assert (x - y).vec.tobytes() == old.vec.tobytes()
        assert (-x).vec.tobytes() == ((-1.0) * x).vec.tobytes()
        old_residual = float(np.max(np.abs(old.vec)))
        assert np.float64(residual(x, y)).tobytes() == np.float64(old_residual).tobytes()
        assert (x - y).degree == (-x).degree == degree
        assert not (x - y).vec.flags.writeable and not (-x).vec.flags.writeable
    with pytest.raises(ValueError, match="degree mismatch"):
        residual(a, KForm.zero((degree + 1) % 9))


@pytest.mark.parametrize("degree,vec,message", [
    (9, [1.0], "degree must be 0..8, got 9"),
    (-1, [1.0], "degree must be 0..8, got -1"),
    (2, np.zeros(27), r"degree-2 coefficient vector needs shape \(28,\), got \(27,\)"),
    (0, np.zeros((1, 1)), r"degree-0 coefficient vector needs shape \(1,\), got \(1, 1\)"),
])
def test_from_vector_refuses_a_bad_degree_or_shape(degree, vec, message):
    with pytest.raises(ValueError, match=message):
        KForm.from_vector(degree, vec)


def test_from_vector_copies_its_input():
    vec = np.arange(8.0)
    a = KForm.from_vector(1, vec)
    vec[0] = 5.0
    assert a.vec[0] == 0.0 and not a.vec.flags.writeable
    assert a == KForm(1, {(i,): float(i) for i in range(1, 8)})


# ---------------------------------------------------------------------------
# serialization

def test_form_json_round_trip(rng):
    f = random_form(rng, 3, 0.4)
    assert form_from_json(form_to_json(f)).coeffs == f.coeffs


def test_form_json_rejects_non_canonical():
    with pytest.raises(ValueError):
        form_from_dict({"degree": 2, "terms": [{"idx": [1, 0], "c": 1.0}]})
    with pytest.raises(ValueError):
        form_from_dict({"degree": 2, "terms": [{"idx": [0, 0], "c": 1.0}]})
    with pytest.raises(ValueError):
        form_from_dict({"degree": 2, "terms": [{"idx": [0, 1], "c": 1.0},
                                               {"idx": [0, 1], "c": 2.0}]})


@pytest.mark.parametrize("text,field", [
    ('{"degree": 2, "terms": [{"idx": [0.9, "1"], "c": 1}, {"idx": [true, 2], "c": 2}]}', "idx"),
    ('{"degree": 2, "terms": [{"idx": [0, 1.0], "c": 1}]}', "idx"),
    ('{"degree": 2, "terms": [{"idx": [true, 2], "c": 1}]}', "idx"),
    ('{"degree": 2, "terms": [{"idx": "01", "c": 1}]}', "idx"),
    ('{"degree": 2.0, "terms": []}', "degree"),
    ('{"degree": "2", "terms": []}', "degree"),
    ('{"degree": true, "terms": []}', "degree"),
])
def test_form_json_refuses_indices_that_are_not_json_integers(text, field):
    # int() would read 0.9 as 0 and "1" and true as 1: a different form, silently
    with pytest.raises(ValueError, match=f"field '{field}' must be"):
        form_from_json(text)


@pytest.mark.parametrize("value", ["true", '"2.5"', "null", "[1]"])
def test_form_json_refuses_coefficients_that_are_not_numbers(value):
    # float() read true as 1.0 and "2.5" as 2.5
    with pytest.raises(ValueError, match="field 'c' must be a number"):
        form_from_json('{"degree": 4, "terms": [{"idx": [0, 1, 2, 7], "c": %s}]}' % value)


def test_form_json_integer_beyond_double_range_is_not_finite():
    with pytest.raises(ValueError, match="is not finite"):
        form_from_json('{"degree": 1, "terms": [{"idx": [0], "c": 1%s}]}' % ("0" * 400))


@pytest.mark.parametrize("d,message", [
    ([1, 2], "a k-form must be an object, got list"),
    ({"degree": 4, "terms": 7}, "field 'terms' must be a list, got int"),
    ({"degree": 4, "terms": [[0, 1, 2, 7]]}, "each entry of 'terms' must be an object, got list"),
    ({"degree": 1, "terms": [{"idx": 3, "c": 1}]}, "field 'idx' must be a list, got int"),
])
def test_form_dict_of_the_wrong_shape_names_the_field(d, message):
    with pytest.raises(ValueError, match=message):
        form_from_dict(d)


def test_kform_still_takes_numpy_integers():
    a = KForm(np.int64(2), {(np.int64(0), np.intp(1)): 1.0})
    assert a == form_from_json('{"degree": 2, "terms": [{"idx": [0, 1], "c": 1}]}')


def test_form_json_layout():
    f = KForm(2, {(0, 1): 1.5})
    assert json.loads(form_to_json(f)) == {
        "degree": 2, "terms": [{"idx": [0, 1], "c": 1.5}]}


def test_form_json_text_nested_too_deeply_is_a_value_error():
    # json.loads ended in a raw RecursionError on text nested 100,000 deep
    with pytest.raises(ValueError, match="JSON text: JSON nested too deeply to read"):
        form_from_json("[" * 100000 + "]" * 100000)


def test_json_file_nested_too_deeply_is_a_value_error_naming_it(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="deep.json: JSON nested too deeply to read"):
        read_json(path)


def shared_tables():
    """Every table the package builds once and hands to every later call, by name."""
    pairs = [(p, q) for p in range(1, 8) for q in range(1, 9 - p)]
    yield from ((f"forms._index_array({k})", forms._index_array(k)) for k in range(9))
    yield from ((f"forms._merge_table{pq}", forms._merge_table(*pq)) for pq in pairs)
    yield from ((f"forms._wedge_table{pq}", forms._wedge_table(*pq)) for pq in pairs)
    yield from ((f"forms._dense_table({k})", forms._dense_table(k)) for k in range(1, 9))
    yield from ((f"operator_references._laplace_table({k})", _laplace_table(k)) for k in range(2, 9))
    yield from ((f"liealgebra._d_pattern({k})", liealgebra._d_pattern(k)) for k in range(1, 8))
    yield "structure._derivation_table()", structure._derivation_table()
    yield "structure._rotations()", structure._rotations()
    yield "structure._TWO_INDEX_G", structure._TWO_INDEX_G


def arrays_in(table):
    if isinstance(table, tuple):
        for part in table:
            yield from arrays_in(part)
    else:
        yield table


def refuses_a_write(arr):
    try:
        arr[...] = arr.copy()  # the same values, so a table that takes the write is not changed
    except ValueError:
        return True
    return False


def test_shared_tables_are_read_only():
    # a caller that wrote into one would change every later verdict in the process
    writable = [name for name, table in shared_tables()
                for arr in arrays_in(table) if not refuses_a_write(arr)]
    assert not writable
