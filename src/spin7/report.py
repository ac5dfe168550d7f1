"""Residual-based verification reports.

Every check in this package reduces to a named residual: the max-abs over
all free components of (left side - right side) of an identity.  An entry
passes iff its residual is at or below its tolerance.  "Not applicable" is
a first-class verdict, used for conditional checks whose hypothesis fails
on the geometry at hand; such entries never count against a report.

``VerificationReport.to_json`` writes the ``indent=2`` layout itself and
encodes all values in one call of the C-accelerated encoder; its output is
pinned byte for byte to ``json.dumps(report.to_dict(), indent=2)``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import chain

SCHEMA_VERSION = "1"
DEFAULT_TOL = 1e-9


class NonFiniteResidual(ValueError):
    """A residual came out inf or nan, which only an overflow of the inputs produces."""

    def __init__(self, check_id: str, residual: float):
        super().__init__(f"entry {check_id!r}: residual must be finite, got {residual!r}")
        self.check_id, self.residual = check_id, residual


@dataclass(frozen=True)
class CheckEntry:
    check_id: str
    paper_anchor: str
    residual: float
    tolerance: float
    passed: bool | None
    not_applicable: bool = False
    notes: str = ""

    def __post_init__(self):
        if not self.not_applicable:
            if not math.isfinite(self.residual):
                raise NonFiniteResidual(self.check_id, self.residual)
            if self.residual < 0.0:
                raise ValueError(f"entry {self.check_id!r}: residual must be >= 0, "
                                 f"got {self.residual!r}")
            if self.passed != (self.residual <= self.tolerance):
                raise ValueError(f"entry {self.check_id!r}: verdict/residual mismatch")

    def to_dict(self) -> dict:
        return dict(zip(_ENTRY_FIELDS, _entry_values(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "CheckEntry":
        what = "each entry of 'entries'"
        d = _json_shape(d, dict, what)
        check_id, anchor, residual, tol, passed = (_json_field(d, name, what) for name in (
            "check_id", "paper_anchor", "residual", "tolerance", "passed"))
        return cls(check_id, anchor, _json_number(residual, "residual"), _json_number(tol, "tolerance"),
                   passed, d.get("not_applicable", False), d.get("notes", ""))


def entry(check_id: str, anchor: str, residual: float, tol: float, notes: str = "") -> CheckEntry:
    r = float(residual)
    return CheckEntry(check_id, anchor, r, float(tol), r <= tol, False, notes)


def agreement_entry(check_id: str, anchor: str, verdicts: list[bool], tol: float,
                    notes: str = "") -> CheckEntry:
    """Entry asserting that a list of boolean verdicts all agree."""
    agree = len(set(verdicts)) <= 1
    tags = ",".join("pass" if v else "fail" for v in verdicts)
    return entry(check_id, anchor, 0.0 if agree else 1.0, tol,
                 notes=(notes + " " if notes else "") + f"verdicts=[{tags}]")


def na_entry(check_id: str, anchor: str, notes: str = "") -> CheckEntry:
    return CheckEntry(check_id, anchor, 0.0, 0.0, None, True, notes)


def _json_loads(text: str, source: str = "JSON text"):
    """json.loads(text); nesting too deep to parse is refused as a ValueError naming the source."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to read") from None


def _json_int(value, name: str) -> int:
    """A JSON integer field as it is; a bool, float or str is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str):
    """A JSON number field as it is; a bool or str is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
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
_ENTRY_FIELDS = tuple(CheckEntry.__dataclass_fields__)
_ENTRY_LAYOUT = "    {\n" + ",\n".join(f'      "{f}": %s' for f in _ENTRY_FIELDS) + "\n    }"
_entry_values = operator.attrgetter(*_ENTRY_FIELDS)
_ONE_PER_LINE = json.JSONEncoder(separators=("\n", ": "))
_SCALARS = (str, float, int, bool, type(None))


@dataclass
class VerificationReport:
    geometry_id: str
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, e: CheckEntry) -> None:
        self.entries.append(e)

    def extend(self, es) -> None:
        self.entries.extend(es)

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
        the encoder's output splits into one value per line.  A report with
        a non-scalar value (only ``from_dict`` can make one) goes through
        json.dumps whole.
        """
        values = [SCHEMA_VERSION, self.geometry_id,
                  *chain.from_iterable(map(_entry_values, self.entries))]
        if not all(type(v) in _SCALARS for v in values):
            return json.dumps(self.to_dict(), indent=2)
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
        n_app = len(self.applicable)
        n_pass = sum(1 for e in self.applicable if e.passed)
        n_na = len(self.entries) - n_app
        lines.append(
            f"{self.geometry_id}: {n_pass}/{n_app} checks passed"
            + (f", {n_na} not applicable" if n_na else "")
        )
        return lines
