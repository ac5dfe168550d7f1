"""Residual-based verification reports.

Every check in this package reduces to a named residual: the max-abs over
all free components of (left side - right side) of an identity.  An entry
passes iff its residual is at or below its tolerance.  "Not applicable" is
a first-class verdict, used for conditional checks whose hypothesis fails
on the geometry at hand; such entries never count against a report.

``VerificationReport.to_json`` writes the ``indent=2`` layout itself and
encodes all values in one call of the C-accelerated encoder; its output is
pinned byte for byte to ``json.dumps(report.to_dict(), indent=2)``, and the
constructors refuse what ``from_json`` would, so what it writes loads again.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from itertools import chain

SCHEMA_VERSION = "1"
DEFAULT_TOL = 1e-9


class NonFiniteResidual(ValueError):
    """A residual came out inf or nan, which only an overflow of the inputs produces."""

    def __init__(self, check_id: str, residual: float):
        super().__init__(f"entry {check_id!r}: residual must be finite, got {residual!r}")
        self.check_id, self.residual = check_id, residual


class Frozen:
    """A value whose fields are set once, by its constructor, in its ``__dict__``.

    Assigning or deleting an attribute afterwards raises AttributeError.
    ``cached`` writes to ``__dict__`` directly, so it still fills.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r} of a frozen {type(self).__name__}")


def _read_only(value):
    """value, with every array in it (nested in tuples or not) made read-only."""
    if isinstance(value, tuple):
        for x in value:
            _read_only(x)
    elif hasattr(value, "setflags"):
        value.setflags(write=False)
    return value


class cached:
    """A property built on first read into ``__dict__``, with its arrays made read-only.

    A build that raises stores nothing.  Like ``functools.cached_property``
    from Python 3.12 on, it takes no lock: two first reads at once may both build.
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = _read_only(self.build(obj))
        return value


# CheckEntry's fields in order: the keys of to_dict and of every entry to_json writes
_ENTRY_FIELDS = ("check_id", "paper_anchor", "residual", "tolerance", "passed",
                 "not_applicable", "notes")


class CheckEntry(Frozen):
    """One identity's verdict: its residual against its tolerance, or not applicable."""

    def __init__(self, check_id: str, paper_anchor: str, residual: float, tolerance: float,
                 passed: bool | None, not_applicable: bool = False, notes: str = ""):
        if not (type(check_id) is str and type(paper_anchor) is str and type(residual) is float
                and type(tolerance) is float and type(notes) is str):
            _check_entry_fields(check_id, paper_anchor, residual, tolerance, notes)
        d = vars(self)
        d["check_id"], d["paper_anchor"], d["residual"], d["tolerance"] = (
            check_id, paper_anchor, residual, tolerance)
        d["passed"], d["not_applicable"], d["notes"] = passed, not_applicable, notes
        if type(not_applicable) is not bool or type(passed) is not (
                type(None) if not_applicable else bool):
            raise ValueError(f"entry {check_id!r}: passed must be a bool, or None exactly when "
                             f"not_applicable is True; got passed={passed!r}, "
                             f"not_applicable={not_applicable!r}")
        if not not_applicable:
            if not math.isfinite(residual):
                raise NonFiniteResidual(check_id, residual)
            if residual < 0.0:
                raise ValueError(f"entry {check_id!r}: residual must be >= 0, got {residual!r}")
            if passed != (residual <= tolerance):
                raise ValueError(f"entry {check_id!r}: verdict/residual mismatch")

    def to_dict(self) -> dict:
        return dict(zip(_ENTRY_FIELDS, _entry_values(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "CheckEntry":
        what = "each entry of 'entries'"
        d = _json_shape(d, dict, what)
        check_id, anchor, residual, tol, passed = (_json_field(d, name, what) for name in (
            "check_id", "paper_anchor", "residual", "tolerance", "passed"))
        na = _json_kind(d.get("not_applicable", False), bool, "not_applicable")
        return cls(check_id, anchor, residual, tol,
                   _json_kind(passed, type(None) if na else bool, "passed"), na, d.get("notes", ""))


def _check_entry_fields(check_id, paper_anchor, residual, tolerance, notes) -> None:
    """Refuse, as from_dict would, a field that is not a string or a number in double range."""
    for name, value in (("check_id", check_id), ("paper_anchor", paper_anchor), ("notes", notes)):
        _json_kind(value, str, name)
    for name, value in (("residual", residual), ("tolerance", tolerance)):
        _json_kind(value, (int, float), name)
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"field {name!r} must be a number in double range")


def entry(check_id: str, anchor: str, residual: float, tol: float, notes: str = "") -> CheckEntry:
    r, t = float(residual), float(tol)
    return CheckEntry(check_id, anchor, r, t, r <= t, False, notes)


def agreement_entry(check_id: str, anchor: str, verdicts: list[bool], tol: float) -> CheckEntry:
    """Entry asserting that a list of boolean verdicts all agree."""
    tags = ",".join("pass" if v else "fail" for v in verdicts)
    return entry(check_id, anchor, 0.0 if len(set(verdicts)) <= 1 else 1.0, tol,
                 notes=f"verdicts=[{tags}]")


def na_entry(check_id: str, anchor: str, notes: str = "") -> CheckEntry:
    return CheckEntry(check_id, anchor, 0.0, 0.0, None, True, notes)


def _json_loads(text: str, source: str = "JSON text"):
    """json.loads(text); nesting too deep to parse is refused as a ValueError naming the source."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to read") from None


_JSON_KINDS = {int: "an integer", (int, float): "a number", str: "a string", bool: "a boolean",
               type(None): "null on a not-applicable entry"}


def _json_kind(value, kind, name: str):
    """A JSON field of a kind in _JSON_KINDS as it is; any other value is refused, not converted."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"field {name!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_shape(value, kind: type, what: str):
    """A JSON object (dict) or array (list) as it is; any other value is refused."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _json_field(obj: dict, name: str, what: str):
    """obj[name]; a missing field is refused, naming it and the object that lacks it."""
    if name not in obj:
        raise ValueError(f"{what} needs field {name!r}")
    return obj[name]


# to_json's layout: the entry template of json.dumps(..., indent=2), and an
# encoder (C-accelerated, as it has no indent) that writes one value per line
_ENTRY_LAYOUT = "    {\n" + ",\n".join(f'      "{f}": %s' for f in _ENTRY_FIELDS) + "\n    }"
_entry_values = operator.attrgetter(*_ENTRY_FIELDS)
_ONE_PER_LINE = json.JSONEncoder(separators=("\n", ": "))


class VerificationReport(Frozen):
    """One geometry's check entries, a tuple in report order that ``add`` and ``extend`` replace."""

    def __init__(self, geometry_id: str, entries: list[CheckEntry] | None = None):
        vars(self).update(geometry_id=_json_kind(geometry_id, str, "geometry_id"), entries=())
        self.extend(entries or ())

    def add(self, e: CheckEntry) -> None:
        self.extend((e,))

    def extend(self, es) -> None:
        """Append es, refused whole unless every item is a CheckEntry, all that to_json writes."""
        for e in (es := tuple(es)):
            if not isinstance(e, CheckEntry):
                raise ValueError(f"a report's entries must be CheckEntry values, "
                                 f"got {type(e).__name__}")
        vars(self)["entries"] = self.entries + es

    @property
    def applicable(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.not_applicable]

    def all_passed(self) -> bool:
        return all(e.passed for e in self.applicable)

    def failed(self) -> list[CheckEntry]:
        return [e for e in self.applicable if not e.passed]

    def max_residual(self) -> float:
        return max((e.residual for e in self.applicable), default=0.0)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "geometry_id": self.geometry_id,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte, with the layout written here.

        The values are encoded in one call; each holds no raw newline, so
        the encoder's output splits into one value per line.  The constructors
        admit only strings, numbers, bools and None, subclasses included, which
        the encoder writes as json.dumps does (an ``np.float64`` as its float).
        """
        values = [SCHEMA_VERSION, self.geometry_id,
                  *chain.from_iterable(map(_entry_values, self.entries))]
        entries = ("[\n" + ",\n".join([_ENTRY_LAYOUT] * len(self.entries)) + "\n  ]"
                   if self.entries else "[]")
        layout = '{\n  "schema_version": %s,\n  "geometry_id": %s,\n  "entries": ' + entries + "\n}"
        return layout % tuple(_ONE_PER_LINE.encode(values)[1:-1].split("\n"))

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        d = _json_shape(d, dict, "a report")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema {d.get('schema_version')!r}")
        geometry_id = _json_field(d, "geometry_id", "a report")
        entries = _json_shape(_json_field(d, "entries", "a report"), list, "field 'entries'")
        return cls(geometry_id, [CheckEntry.from_dict(e) for e in entries])

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(_json_loads(text))

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            verdict = "N/A " if e.not_applicable else "PASS" if e.passed else "FAIL"
            line = f"{verdict}  {e.check_id:<34} residual={e.residual:.3e} tol={e.tolerance:.1e}"
            if e.notes:
                line += f"  [{e.notes}]"
            lines.append(line)
        n_app, n_na = len(self.applicable), len(self.entries) - len(self.applicable)
        lines.append(f"{self.geometry_id}: {n_app - len(self.failed())}/{n_app} checks passed"
                     + (f", {n_na} not applicable" if n_na else ""))
        return lines
