"""Golden reports of the corpus targets: same verdicts, residuals to 1e-12.

``data/golden_reports.json`` holds ``full_report(...).to_dict()`` for every
``corpus.VERIFY_TARGETS`` entry, computed with the term-by-term
antiderivation form of ``ce_differential`` and four-operand einsums in
``validate_phi``.  A rewrite of the numerics may move residuals in their
last bits; it may not change a verdict, an N/A decision or a note.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    assert_matches_golden(full_report(build_geometry(*target)).to_dict(), golden)


def assert_matches_golden(report, golden):
    assert report["geometry_id"] == golden["geometry_id"]
    assert [e["check_id"] for e in report["entries"]] == \
        [e["check_id"] for e in golden["entries"]]
    for got, want in zip(report["entries"], golden["entries"]):
        for key in ("paper_anchor", "tolerance", "passed", "not_applicable", "notes"):
            assert got[key] == want[key], (got["check_id"], key)
        assert abs(got["residual"] - want["residual"]) <= RESIDUAL_TOL, got["check_id"]


def test_shared_inputs_carry_no_state_from_op_to_op():
    # the shipped algebras, their mirrors and the shipped forms are shared by
    # every op of a process: two passes in seeded interleaved orders must give
    # the bytes a fresh process gives for each target, and those match golden
    code = ("import sys\nfrom spin7.checks import full_report\n"
            "from spin7.corpus import build_geometry\n"
            "sys.stdout.write(full_report(build_geometry(*{!r})).to_json())")
    fresh = {target: subprocess.run([sys.executable, "-c", code.format(target)], check=True,
                                    capture_output=True, text=True).stdout
             for target in VERIFY_TARGETS}
    for target, golden in zip(VERIFY_TARGETS, GOLDEN):
        assert_matches_golden(json.loads(fresh[target]), golden)
    for seed in (1, 2):
        order = np.random.default_rng(seed).permutation(len(VERIFY_TARGETS))
        for i in order:
            target = VERIFY_TARGETS[i]
            assert full_report(build_geometry(*target)).to_json() == fresh[target], target
