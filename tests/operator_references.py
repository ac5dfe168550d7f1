"""The Lambda^2 and Lambda^4 operators applied to one form at a time, at g = I.

``Spin7Form.projectors`` reads both operator matrices off phi's coefficients;
these are the independent references they are held against: star of a wedge,
and the six-term contraction as one 64 x 64 matmul.
"""

from spin7.forms import DIM, KForm, hodge_star, wedge
from spin7.structure import Spin7Form


def lambda2_operator(beta: KForm, structure: Spin7Form) -> KForm:
    """beta -> *(beta ^ phi) at g = I; eigenvalues -3 on the 7-part, +1 on the 21-part."""
    return hodge_star(wedge(beta, structure.phi))


def omega_operator(sigma: KForm, structure: Spin7Form) -> KForm:
    """Six-term double contraction of a 4-form against phi at g = I."""
    if sigma.degree != 4:
        raise ValueError(f"expected a 4-form, got degree {sigma.degree}")
    # M_ijkl = sigma_ijpq phi_pqkl; Omega = M + M_iklj + M_iljk + M_jkil + M_jlki + M_klij
    m = sigma.to_array().reshape(64, 64) @ structure.dense.reshape(64, 64)
    axes = ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 3, 1), (2, 0, 1, 3), (3, 0, 2, 1), (2, 3, 0, 1))
    return KForm.from_array(sum(m.reshape((DIM,) * 4).transpose(ax) for ax in axes))
