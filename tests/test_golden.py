"""Golden reports of the corpus targets: same verdicts, residuals to 1e-12.

``data/golden_reports.json`` holds ``full_report(...).to_dict()`` for every
``corpus.VERIFY_TARGETS`` entry, computed with the term-by-term
antiderivation form of ``ce_differential`` and four-operand einsums in
``validate_phi``.  A rewrite of the numerics may move residuals in their
last bits; it may not change a verdict, an N/A decision or a note.
"""

import json
from pathlib import Path

import pytest

from spin7.checks import full_report
from spin7.corpus import VERIFY_TARGETS, build_geometry, geometry_id

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())
RESIDUAL_TOL = 1e-12


def test_golden_covers_every_target():
    assert [r["geometry_id"] for r in GOLDEN] == [geometry_id(*t) for t in VERIFY_TARGETS]


@pytest.mark.parametrize("target,golden", list(zip(VERIFY_TARGETS, GOLDEN)),
                         ids=[r["geometry_id"] for r in GOLDEN])
def test_report_matches_golden(target, golden):
    report = full_report(build_geometry(*target)).to_dict()
    assert report["geometry_id"] == golden["geometry_id"]
    assert [e["check_id"] for e in report["entries"]] == \
        [e["check_id"] for e in golden["entries"]]
    for got, want in zip(report["entries"], golden["entries"]):
        for key in ("paper_anchor", "tolerance", "passed", "not_applicable", "notes"):
            assert got[key] == want[key], (got["check_id"], key)
        assert abs(got["residual"] - want["residual"]) <= RESIDUAL_TOL, got["check_id"]
