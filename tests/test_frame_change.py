"""Verdicts do not depend on the frame.

Pull a corpus geometry back along a seeded A in GL+(8), three draws: the frame
e'_i = A_ai e_a has structure constants c'^k_ij = A_ai A_bj c^m_ab (A^-1)_km,
the form becomes A*phi and the metric A^T A.  Every identity is tensorial,
so each entry of the report must keep its verdict and its N/A decision.

``metric_from_phi`` is patched to return A^T A, the true induced metric of
A*phi: the package's formula for it is only right in orthonormal frames.
"""

import numpy as np
import pytest

import spin7.structure
from spin7.checks import full_report
from spin7.corpus import build_geometry, build_structure_form, geometry_id, get_algebra
from spin7.forms import FrameMetric, KForm
from spin7.geometry import Geometry
from spin7.liealgebra import LieAlgebra8

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
    c = np.einsum("ai,bj,abm,km->ijk", a, a, alg.c, np.linalg.inv(a))
    phi, _ = build_structure_form(structure, t)
    phi_a = np.einsum("abcd,ai,bj,ck,dl->ijkl", phi.to_array(), a, a, a, a)
    return LieAlgebra8(alg.name, c), KForm.from_array(phi_a)


# seed 7, the first frame tested, keeps the bare target id
FRAMES = [pytest.param(t, seed, id=geometry_id(*t) + ("" if seed == 7 else f"-seed{seed}"))
          for seed in (7, 11, 13) for t in TARGETS]


@pytest.mark.parametrize("target,seed", FRAMES)
def test_verdicts_survive_a_change_of_frame(target, seed, monkeypatch):
    orthonormal = full_report(build_geometry(*target)).entries
    a = frame(seed)
    alg, phi = pulled_back(target, a)
    monkeypatch.setattr(spin7.structure, "metric_from_phi", lambda _: FrameMetric(a.T @ a))
    moved = full_report(Geometry.build(alg, phi)).entries
    assert [e.check_id for e in moved] == [e.check_id for e in orthonormal]
    for got, want in zip(moved, orthonormal):
        assert (got.passed, got.not_applicable) == (want.passed, want.not_applicable), \
            (got.check_id, got.residual, want.residual)
