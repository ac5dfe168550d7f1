"""Verdicts do not depend on the frame.

Pull a corpus geometry back along a seeded A in GL+(8): the frame
e'_i = A_ai e_a has structure constants c'^k_ij = A_ai A_bj c^m_ab (A^-1)_km,
the form becomes A*phi, the metric A^T A and a covector df becomes A^T df.
Every identity is tensorial, so each entry of the report must keep its
verdict and its N/A decision.  ``Geometry.build`` verifies in the frame the
metric makes orthonormal, so no index is raised with an ill-conditioned
A^T A on the way.

``metric_from_phi`` is patched to return A^T A, the true induced metric of
A*phi: the package's formula for it is only right in orthonormal frames.
The patch goes when that formula is replaced by one that holds in every
frame (ROADMAP item 1); ``Geometry.build`` maps whatever it returns.

A closed-torsion family opens every gate off the orthonormal corpus:
bi-invariant algebras with unequal radii, presented in 34 seeded frames with
det A of either sign and cond(A^T A) up to 1.7e9, their structures built
with the metric A^T A they induce.  Every entry must apply and pass there.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin7.structure
from operator_references import mirror_algebra, shortcut_mismatches
from spin7.checks import full_report
from spin7.corpus import build_geometry, build_structure_form, geometry_id, get_algebra
from spin7.forms import FrameMetric, IDENTITY_METRIC, KForm, pull_back
from spin7.geometry import Geometry, SolitonData
from spin7.liealgebra import LieAlgebra8
from spin7.structure import Spin7Form, canonical_phi_form

TARGETS = (
    ("su3", "canonical", None),
    ("su2su2u1u1", "remark_b", None),
    ("su2su2u1u1", "phi_t", np.pi / 4.0),
    ("heisenberg", "canonical", None),
)


def frame(seed: int = 7) -> np.ndarray:
    """A = I + 0.3 N with N seeded standard normal, redrawn until det A > 0."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
        if np.linalg.det(a) > 0.0:
            return a


def pulled_back(target, a):
    algebra, structure, t = target
    alg = get_algebra(algebra)
    c = np.einsum("ai,bj,abm,km->ijk", a, a, alg.c, np.linalg.inv(a), optimize=True)
    phi, _ = build_structure_form(structure, t)
    phi_a = np.einsum("abcd,ai,bj,ck,dl->ijkl", phi.to_array(), a, a, a, a, optimize=True)
    return LieAlgebra8(alg.name, c), KForm.from_array(phi_a)


def moved_geometry(target, a, monkeypatch) -> Geometry:
    alg, phi = pulled_back(target, a)
    monkeypatch.setattr(spin7.structure, "metric_from_phi", lambda _: FrameMetric(a.T @ a))
    return Geometry.build(alg, phi)


def assert_same_verdicts(moved, orthonormal):
    assert [e.check_id for e in moved] == [e.check_id for e in orthonormal]
    for got, want in zip(moved, orthonormal):
        assert (got.passed, got.not_applicable) == (want.passed, want.not_applicable), \
            (got.check_id, got.residual, want.residual)


# seed 7, the first frame tested, keeps the bare target id; seed 3 has cond(A^T A) = 8.2e4
FRAMES = [pytest.param(t, seed, id=geometry_id(*t) + ("" if seed == 7 else f"-seed{seed}"))
          for seed in (7, 11, 13, 3) for t in TARGETS]


@pytest.mark.parametrize("target,seed", FRAMES)
def test_verdicts_survive_a_change_of_frame(target, seed, monkeypatch):
    orthonormal = full_report(build_geometry(*target)).entries
    moved = moved_geometry(target, frame(seed), monkeypatch)
    assert moved.structure.metric is IDENTITY_METRIC
    assert_same_verdicts(full_report(moved).entries, orthonormal)


@pytest.mark.parametrize("target,seed", FRAMES)
def test_report_shortcuts_are_their_references_in_a_moved_frame(target, seed, monkeypatch):
    assert shortcut_mismatches(moved_geometry(target, frame(seed), monkeypatch)) == []


def bi_invariant_member(name: str, a: np.ndarray) -> Geometry:
    """A closed-torsion geometry in a generic frame: su2su2u1u1 with its two S^3 factors
    at different radii, or su3's constants x 1.7, presented in the frame A with the
    metric A^T A and the orientation sign det A."""
    alg = get_algebra(name)
    if name == "su2su2u1u1":
        alg = alg.in_frame(np.diag([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.5]))
    else:
        alg = LieAlgebra8(name, 1.7 * alg.c)
    orientation = 1 if np.linalg.det(a) > 0.0 else -1
    phi = Spin7Form(pull_back(canonical_phi_form(), a), FrameMetric(a.T @ a, orientation))
    return Geometry.build(alg.in_frame(a), phi)


def near_identity(seed: int) -> np.ndarray:
    """A = I + 0.4 N, N seeded standard normal; det A takes either sign."""
    return np.eye(8) + 0.4 * np.random.default_rng(seed).standard_normal((8, 8))


def family_frames() -> dict[str, np.ndarray]:
    """The 34 frames of the closed-torsion family, by id.

    The first eight seeds from 0 up with det A > 0 and the first eight with det A < 0
    give near_identity frames; seeds 100-117 give (I + 0.3 N) diag(e^u), u uniform in
    [-5, 5]^8, whose metrics reach cond(A^T A) = 1.7e9.
    """
    frames, by_sign, seed = {}, {True: 0, False: 0}, 0
    while len(frames) < 16:
        a = near_identity(seed)
        if by_sign[positive := np.linalg.det(a) > 0.0] < 8:
            by_sign[positive] += 1
            frames[f"seed{seed}"] = a
        seed += 1
    for seed in range(100, 118):
        rng = np.random.default_rng(seed)
        a = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
        frames[f"scaled-seed{seed}"] = a * np.exp(rng.uniform(-5.0, 5.0, 8))
    return frames


def correlation_cond(a: np.ndarray) -> float:
    """cond of A^T A scaled to unit diagonal, which a diagonal rescaling of the frame keeps."""
    g = a.T @ a
    d = 1.0 / np.sqrt(np.diag(g))
    return float(np.linalg.cond(d[:, None] * g * d))


# seed 22 has det A = -4.6e-3 and correlation cond 5.3e6: rounding in the frame map
# exceeds the absolute tolerance 1e-9, so 20 entries fail and 20 are N/A on each algebra
ILL_CONDITIONED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="absolute tolerance below the rounding at correlation cond 5.3e6 (ROADMAP item 3)")
FAMILY = [pytest.param(name, a, id=f"{name}-{key}",
                       marks=ILL_CONDITIONED if key == "seed22" else ())
          for name in ("su2su2u1u1", "su3") for key, a in family_frames().items()]


@functools.lru_cache(maxsize=None)
def at_identity(name: str) -> list:
    entries = full_report(bi_invariant_member(name, np.eye(8))).entries
    assert all(e.passed for e in entries)
    return entries


@pytest.mark.parametrize("name,a", FAMILY)
def test_closed_torsion_family_passes_every_entry_in_a_generic_frame(name, a):
    # every gate is open, so bi_structure_mirror_closed applies off the corpus, and every
    # entry passes, as at A = I.  Measured worst residual over the passing frames: 6.2e-13
    # x correlation cond (8.9e-12 at 14.4); 8.4e-10 at 1.6e4.  A diagonal rescaling is
    # absorbed by the orthonormal frame: at cond(A^T A) up to 1.7e9 the scaled frames
    # stayed below 9e-12.
    geom = bi_invariant_member(name, a)
    assert shortcut_mismatches(geom) == []
    rep = full_report(geom)
    assert_same_verdicts(rep.entries, at_identity(name))
    assert rep.max_residual() <= 2e-12 * correlation_cond(a)


# Measured: 0 flipped entries over the four targets on the 40 frames of seeds
# 1000-1039 (cond(A^T A) up to 7.0e4) and on seed 3 (8.2e4); raising indices
# with g^-1 instead flipped entries from cond 2.7e3 on.  The bound keeps a margin.
WELL_CONDITIONED = st.integers(0, 2**32 - 1).map(frame).filter(
    lambda a: np.linalg.cond(a.T @ a) <= 1e4)


@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from(TARGETS), a=WELL_CONDITIONED)
def test_verdicts_survive_a_drawn_change_of_frame(target, a):
    orthonormal = full_report(build_geometry(*target)).entries
    with pytest.MonkeyPatch.context() as monkeypatch:
        moved = moved_geometry(target, a, monkeypatch)
        assert_same_verdicts(full_report(moved).entries, orthonormal)


@pytest.mark.parametrize("seed", [3, 7])
def test_soliton_gradient_is_read_in_the_input_frame(seed, monkeypatch):
    # df = 1e-3 e^7 along the abelian factor of su2su2u1u1+canonical passes every
    # soliton entry; the moved frame's components are A^T df, which the build maps
    # back by B^T (read unmapped, the same numbers flip 3 soliton entries)
    target, df = ("su2su2u1u1", "canonical", None), 1e-3 * np.eye(8)[7]
    orthonormal = full_report(build_geometry(*target), SolitonData(df)).entries
    assert all(e.passed for e in orthonormal if e.check_id.startswith("soliton_"))
    a = frame(seed)
    moved = full_report(moved_geometry(target, a, monkeypatch), SolitonData(a.T @ df)).entries
    assert_same_verdicts(moved, orthonormal)


def test_a_mapped_algebra_carries_its_jacobi_result_to_its_mirror(monkeypatch):
    # neither the map nor the negation is validated again: the Jacobi identity
    # is tensorial and negation is exact, so the load-time result carries over
    alg = moved_geometry(TARGETS[0], frame(3), monkeypatch).algebra
    mirror = mirror_algebra(alg)
    assert mirror.jacobi == alg.jacobi
    assert np.array_equal(mirror.c, -alg.c)
    assert not mirror.c.flags.writeable
