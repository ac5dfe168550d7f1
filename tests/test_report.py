"""A report that ``to_json`` writes always loads, and loads back to the same bytes.

Drawn reports hold unicode ids, notes with quotes, backslashes and newlines,
int and float residuals from 0 through the subnormals to 1e308, infinite
tolerances, not-applicable entries and agreement notes.  Every one must
satisfy ``from_json(r.to_json()).to_json() == r.to_json() ==
json.dumps(r.to_dict(), indent=2)``; a field that ``from_json`` would refuse
is refused when the entry or report is built, as a ValueError.  The draws
are derandomized, so the suite stays deterministic.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spin7.report import CheckEntry, VerificationReport, agreement_entry, entry, na_entry

TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\r\t\x00 ')), max_size=12)
NUMBER = st.one_of(
    st.sampled_from([0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-9, 1.0, 1e308, 10**308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**308),
)
TOLERANCE = st.one_of(NUMBER, st.just(float("inf")))


@st.composite
def entries(draw):
    check_id, anchor, notes = draw(TEXT), draw(TEXT), draw(TEXT)
    kind = draw(st.sampled_from(["entry", "exact", "na", "agreement"]))
    if kind == "entry":
        return entry(check_id, anchor, draw(NUMBER), draw(TOLERANCE), notes)
    if kind == "exact":  # the number types as given: an int residual stays an int
        residual, tol = draw(NUMBER), draw(TOLERANCE)
        return CheckEntry(check_id, anchor, residual, tol, residual <= tol, False, notes)
    if kind == "na":
        return na_entry(check_id, anchor, notes)
    return agreement_entry(check_id, anchor, draw(st.lists(st.booleans(), max_size=4)),
                           draw(TOLERANCE))


REPORTS = st.builds(VerificationReport, TEXT, st.lists(entries(), max_size=6))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(REPORTS)
def test_a_written_report_loads_back_to_the_same_bytes(rep):
    text = rep.to_json()
    assert text == json.dumps(rep.to_dict(), indent=2)
    assert VerificationReport.from_json(text).to_json() == text


NOT_A_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.lists(TEXT, max_size=2), st.dictionaries(TEXT, TEXT, max_size=2),
                         st.binary(max_size=4))
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), TEXT, st.lists(NUMBER, max_size=2),
                         st.dictionaries(TEXT, NUMBER, max_size=2),
                         st.builds(np.int64, st.integers(0, 2**62)),
                         st.integers(2**1024, 10**400), st.integers(-(10**400), -(2**1024)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field=st.sampled_from(["check_id", "paper_anchor", "notes", "residual", "tolerance"]),
       not_applicable=st.booleans(), data=st.data())
def test_a_field_from_json_would_refuse_is_refused_at_construction(field, not_applicable, data):
    fields = {"check_id": "c", "paper_anchor": "id:a", "residual": 0.0, "tolerance": 1.0,
              "notes": ""}
    bad = data.draw(NOT_A_NUMBER if field in ("residual", "tolerance") else NOT_A_STRING)
    fields[field] = bad
    with pytest.raises(ValueError, match=f"^field {field!r} must be "):
        CheckEntry(passed=None if not_applicable else True, not_applicable=not_applicable,
                   **fields)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(NOT_A_STRING)
@example(7)  # written as "geometry_id": 7, which from_json refused
def test_a_geometry_id_that_is_not_a_string_is_refused(geometry_id):
    with pytest.raises(ValueError, match="^field 'geometry_id' must be a string, got "):
        VerificationReport(geometry_id)


def test_a_reports_geometry_id_and_entry_list_cannot_be_reassigned():
    # "geometry_id": 7 was once assigned after construction; to_json wrote it and
    # from_json refused the text
    rep = VerificationReport("g", [entry("c", "id:a", 0.0, 1.0)])
    for name, value in (("geometry_id", 7), ("entries", [])):
        with pytest.raises(AttributeError, match="frozen VerificationReport"):
            setattr(rep, name, value)
        with pytest.raises(AttributeError, match="frozen VerificationReport"):
            delattr(rep, name)
    assert rep.geometry_id == "g" and len(rep.entries) == 1
    assert VerificationReport.from_json(rep.to_json()).to_json() == rep.to_json()


@pytest.mark.parametrize("bad", ["not an entry", None, {"check_id": "c"}, 0.5],
                         ids=["str", "None", "dict", "float"])
def test_a_report_refuses_an_entry_that_is_not_a_check_entry(bad):
    # add('not an entry') was once accepted, and to_json then raised AttributeError
    rep = VerificationReport("g", [entry("c", "id:a", 0.0, 1.0)])
    message = f"^a report's entries must be CheckEntry values, got {type(bad).__name__}$"
    with pytest.raises(ValueError, match=message):
        rep.add(bad)
    with pytest.raises(ValueError, match=message):
        rep.extend(iter([na_entry("d", "id:b"), bad]))
    with pytest.raises(ValueError, match=message):
        VerificationReport("g", [bad])
    assert [e.check_id for e in rep.entries] == ["c"]  # a refused extend adds nothing
    rep.extend(iter([na_entry("d", "id:b")]))
    assert VerificationReport.from_json(rep.to_json()).to_json() == rep.to_json()
