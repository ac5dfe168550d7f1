"""Shipped example geometries: algebra files and structure builders.

Algebras (see data/*.json):

* abelian      - the 8-torus frame, everything flat; trivial baseline.
* su2su2u1u1   - the biinvariant product S^1 x S^3 x S^3 x S^1; its flat
                 Cartan connection has closed torsion e_123 + e_456.
* su3          - the simple group SU(3) in the orthonormal biinvariant
                 basis (totally antisymmetric constants, last generator
                 mapped to frame index 0).
* heisenberg   - one bracket [e_2, e_3] = e_1 on an otherwise flat frame;
                 a generic stress entry whose torsion connection is curved,
                 so the conditional theorems legitimately report failures.

Structures: the canonical 14-monomial form, the one-parameter rotation
family built from the product SU(3)-structure on the S^3 x S^3 factor, and
the closed-Lee-form combination of three Kaehler-type 2-forms.

Shipped algebras and structures (phi_t at the corpus t only) are built once
per process and shared read-only, each structure as one ``Spin7Form`` with its
metric and derived tables; files given by path, and any other t, are built afresh.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

from .forms import KForm, form_from_dict, hodge_star, read_json, wedge
from .geometry import Geometry
from .liealgebra import LieAlgebra8, load_algebra, parse_scalar
from .structure import Spin7Form, canonical_phi_form

ALGEBRA_NAMES = ("abelian", "su2su2u1u1", "su3", "heisenberg")
STRUCTURE_NAMES = ("canonical", "phi_t", "remark_b")
PHI_T_CORPUS_VALUES = (0.0, math.pi / 4.0, 3.0 * math.pi / 4.0)

ALGEBRA_PROVENANCE = {
    "abelian": "trivial baseline, all structure constants zero",
    "su2su2u1u1": "biinvariant S^1 x S^3 x S^3 x S^1, closed torsion e_123 + e_456",
    "su3": "biinvariant SU(3), orthonormal totally antisymmetric constants",
    "heisenberg": "generic smoke entry, single bracket [e_2, e_3] = e_1",
}

STRUCTURE_PROVENANCE = {
    "canonical": "the standard 14-monomial self-dual 4-form",
    "phi_t": "rotation family e_0 ^ (F ^ e_7 + psi_t) + *7(...), t in {0, pi/4, 3pi/4}",
    "remark_b": "(F1^F1 + F2^F2 - F3^F3)/2, closed Lee form along e_7 - e_0",
}

VERIFY_TARGETS = (
    ("abelian", "canonical", None),
    ("su2su2u1u1", "canonical", None),
    ("su2su2u1u1", "phi_t", 0.0),
    ("su2su2u1u1", "phi_t", math.pi / 4.0),
    ("su2su2u1u1", "phi_t", 3.0 * math.pi / 4.0),
    ("su2su2u1u1", "remark_b", None),
    ("su3", "canonical", None),
)


@lru_cache(maxsize=None)  # an unknown name raises, so only the shipped names are kept
def corpus_algebra(name: str) -> LieAlgebra8:
    if name not in ALGEBRA_NAMES:
        raise ValueError(f"unknown corpus algebra {name!r}; have {ALGEBRA_NAMES}")
    return load_algebra(Path(__file__).with_name("data") / f"{name}.json")


def get_algebra(name_or_path: str) -> LieAlgebra8:
    """Resolve a corpus name or a path to an algebra spec file."""
    if name_or_path in ALGEBRA_NAMES:
        return corpus_algebra(name_or_path)
    return load_algebra(name_or_path)


# ---------------------------------------------------------------------------
# structure builders

def star7(beta: KForm) -> KForm:
    """Hodge dual of the 7-dimensional factor spanned by e_1..e_7.

    Implemented through the 8-dimensional star: *7(b) = *8(e_0 ^ b) for a
    form with no e_0 component.
    """
    if any(0 in idx for idx in beta.coeffs):
        raise ValueError("form has an e_0 component; not a 7-factor form")
    return hodge_star(wedge(KForm.basis_covector(0), beta))


def phi_t_form(t: float) -> KForm:
    """One-parameter family of fundamental forms on the product frame.

    Built from the 7-factor 3-form F ^ e_7 + psi_t.  The sign of the
    3-form is pinned by admissibility under this package's orientation
    (volume +e_01234567): the opposite sign lands in the inadmissible
    orbit and fails the contraction identities.
    """
    f2 = (KForm.monomial((1, 4)) + KForm.monomial((2, 5)) - KForm.monomial((3, 6)))
    psi = (KForm.monomial((1, 2, 3)) + KForm.monomial((1, 5, 6))
           - KForm.monomial((2, 4, 6)) - KForm.monomial((3, 4, 5)))
    psi_hat = (KForm.monomial((4, 5, 6)) + KForm.monomial((2, 3, 4))
               - KForm.monomial((1, 3, 5)) - KForm.monomial((1, 2, 6)))
    psi_t = math.cos(t) * psi + math.sin(t) * psi_hat
    g2_form = -1.0 * (wedge(f2, KForm.basis_covector(7)) + psi_t)
    return wedge(KForm.basis_covector(0), g2_form) + star7(g2_form)


def remark_b_form() -> KForm:
    """Half the signed sum of squares of three Kaehler-type 2-forms.

    The overall sign is pinned by admissibility under this package's
    orientation, same as for the rotation family; this representative has
    Lee form (6/7)(e_7 - e_0) and torsion e_123 + e_456 on the product
    group frame.
    """
    f1 = (KForm.monomial((0, 1)) + KForm.monomial((2, 3))
          + KForm.monomial((4, 5)) + KForm.monomial((6, 7)))
    f2 = (KForm.monomial((0, 2)) - KForm.monomial((1, 3))
          + KForm.monomial((4, 6)) - KForm.monomial((5, 7)))
    f3 = (KForm.monomial((0, 3)) + KForm.monomial((1, 2))
          + KForm.monomial((4, 7)) + KForm.monomial((5, 6)))
    return -0.5 * (wedge(f1, f1) + wedge(f2, f2) - wedge(f3, f3))


def build_structure_form(structure: str, t=None) -> tuple[KForm, list[str]]:
    """Resolve a structure spec to a 4-form; returns (form, warnings)."""
    form, warnings = _resolve_structure(structure, t)
    return (form.phi if isinstance(form, Spin7Form) else form), warnings


def _resolve_structure(structure: str, t=None) -> tuple[KForm | Spin7Form, list[str]]:
    """A shipped structure as its shared Spin7Form, anything else as a fresh 4-form.

    A t is refused unless the structure is phi_t, the only one it parametrizes.
    """
    if t is not None and structure != "phi_t":
        raise ValueError(f"t = {t!r} applies only to the phi_t structure, not to {structure!r}")
    warnings: list[str] = []
    if structure in ("canonical", "remark_b"):
        return _shipped_structure(structure), warnings
    if structure == "phi_t":
        t_val = parse_scalar(t) if t is not None else 0.0
        if t_val in PHI_T_CORPUS_VALUES:
            return _shipped_structure(structure, t_val), warnings
        if not any(abs(t_val - c) <= 1e-12 for c in PHI_T_CORPUS_VALUES):
            warnings.append(
                f"t = {t_val!r} is outside the corpus values 0, pi/4, 3pi/4; "
                "proceeding anyway"
            )
        return phi_t_form(t_val), warnings
    # otherwise: path to a serialized 4-form
    form = form_from_dict(read_json(structure))
    if form.degree != 4:
        raise ValueError(f"structure file must hold a 4-form, got degree {form.degree}")
    return form, warnings


@lru_cache(maxsize=None)
def _shipped_structure(structure: str, *t: float) -> Spin7Form:
    build = {"canonical": canonical_phi_form, "phi_t": phi_t_form, "remark_b": remark_b_form}
    return Spin7Form.from_form(build[structure](*t))


def geometry_id(algebra: str, structure: str, t=None) -> str:
    """The report name of a geometry; a file path is named by its stem."""
    if algebra not in ALGEBRA_NAMES:
        algebra = Path(algebra).stem
    if structure == "phi_t":
        return f"{algebra}+phi_t({parse_scalar(t) if t is not None else 0.0:g})"
    if structure not in STRUCTURE_NAMES:
        structure = Path(structure).stem
    return f"{algebra}+{structure}"


def build_geometry(algebra: str, structure: str = "canonical", t=None) -> Geometry:
    alg = get_algebra(algebra)
    phi, _ = _resolve_structure(structure, t)
    return Geometry.build(alg, phi, name=geometry_id(algebra, structure, t))


def corpus_listing() -> list[str]:
    return ["shipped algebras:", *(f"  {n:<12} - {ALGEBRA_PROVENANCE[n]}" for n in ALGEBRA_NAMES),
            "shipped structures:",
            *(f"  {n:<12} - {STRUCTURE_PROVENANCE[n]}" for n in STRUCTURE_NAMES),
            "verification targets (all expected to pass):",
            *(f"  {geometry_id(*target)}" for target in VERIFY_TARGETS)]
