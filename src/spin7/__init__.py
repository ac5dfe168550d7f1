"""Exterior calculus and identity verification for Spin(7)-structures with torsion.

The package root holds the names of the README's "Library use" example;
everything else is imported from its module (``spin7.forms``,
``spin7.structure``, ``spin7.connection``, ``spin7.geometry``,
``spin7.checks``, ...).
"""

from .checks import full_report
from .corpus import build_geometry
from .forms import hodge_star, wedge
from .structure import canonical_phi, project_lambda4

__version__ = "0.1.0"

__all__ = ["build_geometry", "canonical_phi", "full_report", "hodge_star",
           "project_lambda4", "wedge"]
