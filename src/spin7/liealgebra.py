"""Eight-dimensional Lie algebras on an invariant frame.

Structure constants are stored as c[i, j, k] = c^k_{ij} with
[e_i, e_j] = sum_k c^k_{ij} e_k.  Loaders accept either bracket constants
or structure-equation coefficients; the two are related by
de^k(e_i, e_j) = -c^k_{ij}, so a structure-equation entry "de_k contains
c * e_ij" stores c^k_{ij} = -c.
"""

from __future__ import annotations

import ast
import math
import operator
from pathlib import Path

import numpy as np

from .forms import DIM, KForm, _index_array, _merge_table, _read_only, _shared_table, read_json
from .report import Frozen, _json_field, _json_kind, _json_shape, cached

JACOBI_TOL = 1e-12

_SCALAR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _scalar_value(node: ast.AST) -> float:
    """Numbers, unary +/-, + - * /, sqrt(...) and pi; anything else is rejected unevaluated."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SCALAR_OPS:
        return _SCALAR_OPS[type(node.op)](_scalar_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _SCALAR_OPS:
        return _SCALAR_OPS[type(node.op)](_scalar_value(node.left), _scalar_value(node.right))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords):
        return math.sqrt(_scalar_value(node.args[0]))
    raise ValueError(f"{type(getattr(node, 'op', node)).__name__} is not allowed")


def parse_scalar(value) -> float:
    """Parse a number, or exact text like "sqrt(3)/2" or "-1/2"; a bool is refused."""
    if isinstance(value, bool):
        raise ValueError(f"cannot parse scalar {value!r}: a boolean is not a number")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # a JSON integer beyond double range
            raise ValueError("cannot parse scalar: an integer beyond double range") from None
    text = str(value).strip().lower()
    # the parser reports nesting beyond its stack as MemoryError
    try:
        result = _scalar_value(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        reason = str(exc) or "nested too deeply"
        raise ValueError(f"cannot parse scalar {value!r}: {reason}") from None
    if not math.isfinite(result):
        raise ValueError(f"cannot parse scalar {value!r}: not a finite number")
    return result


class LieAlgebra8(Frozen):
    """Jacobi-validated structure constants of an 8-dimensional Lie algebra.

    ``c[i, j, k] = c^k_{ij}``, antisymmetrized and read-only; ``jacobi`` is
    ``jacobi_residual()`` at load; ``_cache`` maps degree k to the matrix of d
    on k-forms, filled on first use.
    """

    def __init__(self, name: str, c: np.ndarray):
        c = np.asarray(c, dtype=float)
        if c.shape != (DIM, DIM, DIM):
            raise ValueError(f"structure constants must be {DIM}^3, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite numbers")
        # a change of basis in floating point leaves a rounding-level asymmetry
        ct = c.transpose(1, 0, 2)
        max_c = float(np.max(np.abs(c)))
        scale = max(1.0, max_c)
        asym = float(np.max(np.abs(c + ct)))
        if asym > JACOBI_TOL * scale:
            raise ValueError(
                f"structure constants are not antisymmetric in (i, j): residual {asym:.3e}")
        vars(self).update(name=name, c=_read_only(0.5 * (c - ct)), _cache={})
        # the Jacobi sum is quadratic in c, so its rounding scales with max|c|^2;
        # past max|c| ~ 1.3e154 its products overflow to inf, or inf - inf = nan
        res, where = self.jacobi_residual()
        vars(self)["jacobi"] = (res, where)
        if not math.isfinite(res):
            raise ValueError(f"algebra {self.name!r}: the structure constants "
                             f"(max |c| = {max_c:.3g}) overflow double precision")
        if not res <= JACOBI_TOL * (scale * scale):
            raise ValueError(
                f"algebra {self.name!r} violates the Jacobi identity at "
                f"(i,j,k,l)={where} with residual {res:.3e}"
            )

    def jacobi_residual(self) -> tuple[float, tuple[int, int, int, int]]:
        # c^m_{ij} c^l_{mk}, one matmul; the cyclic terms are its transposes (inf or nan,
        # without a warning, when the constants overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            cc = (self.c.reshape(DIM * DIM, DIM) @ self.c.reshape(DIM, -1)).reshape((DIM,) * 4)
            jac = cc + cc.transpose(2, 0, 1, 3) + cc.transpose(1, 2, 0, 3)
        flat = int(np.argmax(np.abs(jac)))
        where = np.unravel_index(flat, jac.shape)
        return float(np.max(np.abs(jac))), tuple(int(w) for w in where)

    @classmethod
    def abelian(cls, name: str = "abelian") -> "LieAlgebra8":
        return cls(name, np.zeros((DIM, DIM, DIM)))

    def in_frame(self, b: np.ndarray) -> "LieAlgebra8":
        """The constants in the frame e'_i = b_ai e_a: c'^k_ij = b_ai b_bj c^m_ab (b^-1)_km."""
        return self._derived(self.name, np.einsum("ai,bj,abm,km->ijk", b, b, self.c,
                                                  np.linalg.inv(b), optimize=True))

    def _derived(self, name: str, c: np.ndarray) -> "LieAlgebra8":
        """The algebra of constants c, antisymmetrized, derived from this one's by a change
        of frame (``in_frame``, the one caller in the package) or by a negation c -> -c (the
        tests' mirror algebra).  Both keep the Jacobi identity, so this algebra's ``jacobi``
        is carried over, not checked again: a re-check in another frame sees other rounding
        against another bound, and may refuse a tensor validated at load."""
        alg = object.__new__(LieAlgebra8)
        c = _read_only(0.5 * (c - c.transpose(1, 0, 2)))
        vars(alg).update(name=name, c=c, jacobi=self.jacobi, _cache={})
        return alg

    @cached
    def lc_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The orthonormal frame's Levi-Civita table, curvature, Ricci tensor and scalar."""
        from . import connection  # which imports this module
        lc = connection.levi_civita(self)
        ric = connection.ricci(curv := connection.curvature(lc, self))
        return lc, curv, ric, connection.scalar_curv(ric)

    def is_abelian(self) -> bool:
        return not np.any(self.c)

    def d_matrix(self, k: int) -> np.ndarray:
        """The matrix of d on k-forms; see ``ce_differential``."""
        mat = self._cache.get(k)
        if mat is None:
            target, where, sign = _d_pattern(k)
            shape = (math.comb(DIM, k + 1), math.comb(DIM, k))
            mat = np.bincount(target, sign * -self.c.ravel()[where], minlength=shape[0] * shape[1])
            mat = self._cache[k] = _read_only(mat.reshape(shape))
        return mat


def load_algebra(spec, name: str | None = None) -> LieAlgebra8:
    """Build a validated algebra from a spec dict or the path of a JSON file.

    Schema: {"name": str, "dim": 8, "convention": "brackets" |
    "structure_equations", "constants": [{"i", "j", "k", "c"}, ...]} where
    "c" may be a JSON number (not a bool) or exact text such as "sqrt(3)/2".  A second
    entry for the same {i, j} and k, in either order, is refused.
    """
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    if not isinstance(spec, dict):
        raise ValueError("algebra spec must be a dict or a path to a JSON file")
    spec_name = _json_kind(spec.get("name", "algebra"), str, "name")
    if _json_kind(spec.get("dim", DIM), int, "dim") != DIM:
        raise ValueError(f"only dim = {DIM} algebras are supported")
    convention = spec.get("convention", "brackets")
    if convention not in ("brackets", "structure_equations"):
        raise ValueError(f"unknown convention {convention!r}")
    sign = 1.0 if convention == "brackets" else -1.0
    c, seen = np.zeros((DIM, DIM, DIM)), set()
    for entry in _json_shape(spec.get("constants", []), list, "field 'constants'"):
        what = "each entry of 'constants'"
        entry = _json_shape(entry, dict, what)
        i, j, k = (_json_kind(_json_field(entry, key, what), int, key) for key in "ijk")
        if not (0 <= i < DIM and 0 <= j < DIM and 0 <= k < DIM):
            raise ValueError(f"index out of range in constant ({i},{j},{k})")
        if i == j:
            raise ValueError(f"bracket constant with i == j == {i}")
        if (which := (min(i, j), max(i, j), k)) in seen:
            raise ValueError(f"duplicate constant for [e_{i}, e_{j}] -> e_{k}")
        seen.add(which)
        v = sign * parse_scalar(_json_field(entry, "c", what))
        c[i, j, k] += v
        c[j, i, k] -= v
    return LieAlgebra8(name or spec_name, c)


@_shared_table
def _d_pattern(k: int):
    """Where each structure constant lands in the matrix of d on k-forms.

    d(e^I) = sum_p (-1)^p de^{i_p} ^ e^{I without i_p} with
    de^m = sum_{a<b} -c^m_{ab} e^{ab}, so entry n adds
    sign[n] * -c.ravel()[where[n]] to the flat matrix position target[n].
    The pattern does not depend on the algebra.
    """
    # e^m ^ e^rest = (-1)^p e^I and e^ab ^ e^rest = +/- e^K, paired on rest
    def by_rest(table, shape):
        return [x[np.argsort(table[2], kind="stable")].reshape(shape) for x in table]

    n_rest = math.comb(DIM, k - 1)
    cols, m, _, s1 = by_rest(_merge_table(1, k - 1), (n_rest, -1, 1))
    rows, ab, _, s2 = by_rest(_merge_table(2, k - 1), (n_rest, 1, -1))
    a, b = np.moveaxis(_index_array(2)[ab], -1, 0)
    cols, m, rows, ab, a, b, sign = (
        x.ravel() for x in np.broadcast_arrays(cols, m, rows, ab, a, b, s1 * s2))
    # summed per matrix entry in one fixed order: column, then m, then (a, b)
    order = np.lexsort((ab, m, cols))
    target = rows * math.comb(DIM, k) + cols
    return target[order], ((a * DIM + b) * DIM + m)[order], sign[order]


def ce_differential(beta: KForm, alg: LieAlgebra8) -> KForm:
    """Invariant exterior derivative determined by the structure constants.

    Defined on frame covectors by the structure equations
    de^m = -(1/2) c^m_{ab} e^a ^ e^b and extended as an antiderivation;
    squares to zero exactly when Jacobi holds.  On k-forms it is the matrix
    ``alg.d_matrix(k)`` of shape C(8, k+1) x C(8, k), whose rows and
    columns follow ``canonical_indices(k + 1)`` and ``canonical_indices(k)``
    (increasing tuples in lexicographic order): the coefficient vector of
    d(beta) is that matrix times the coefficient vector of beta.
    """
    k = beta.degree
    if k >= DIM:
        raise ValueError("no degree-8 differential in dimension eight")
    if k == 0:
        return KForm.zero(1)
    return KForm.from_vector(k + 1, alg.d_matrix(k) @ beta.vec)

