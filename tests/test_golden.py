"""Golden reports of the corpus targets: same verdicts, residuals to 1e-12.

``data/golden_reports.json`` holds ``full_report(...).to_dict()`` for every
``corpus.VERIFY_TARGETS`` entry, computed with the term-by-term
antiderivation form of ``ce_differential`` and four-operand einsums in
``validate_phi``.  A rewrite of the numerics may move residuals in their
last bits; it may not change a verdict, an N/A decision or a note.

``data/golden_decompose.json`` holds the printed output of ``spin7
decompose`` for seeded random 2-, 3- and 4-forms and phi0, each against
canonical, remark_b, phi_t at t = 0.7 and a rotated phi0 (the CI's
``rotated.json``, kept in the file), recorded while the Lambda^4 operator
was still built one monomial at a time.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spin7.checks import full_report
from spin7.cli import main as cli_main
from spin7.corpus import VERIFY_TARGETS, build_geometry, geometry_id

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_reports.json").read_text())
DECOMPOSE = json.loads((DATA / "golden_decompose.json").read_text())
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


def parse_decompose(text):
    """decompose's printout as [(part name, norm_sq, {monomial: coefficient})], and the residual."""
    parts = []
    for line in text.splitlines():
        if line.startswith("part_"):
            name, norm = line.split(": norm_sq = ")
            parts.append((name, float(norm), {}))
        elif line.startswith("    e_"):
            monomial, c = line.split()
            parts[-1][2][monomial] = float(c)
        else:
            residual = float(line.removeprefix("recombination residual: "))
    return parts, residual


def printed_close(got, want):
    """Within RESIDUAL_TOL, beyond the last of the 12 significant digits decompose prints."""
    last_digit = 10.0 ** (math.floor(math.log10(abs(want))) - 11) if want else 0.0
    return abs(got - want) <= RESIDUAL_TOL + last_digit


@pytest.mark.parametrize("case", DECOMPOSE["cases"],
                         ids=[f"{c['form']}-{c['structure']}" for c in DECOMPOSE["cases"]])
def test_decompose_matches_golden(case, tmp_path, capsys):
    form, structure = tmp_path / "form.json", case["structure"]
    form.write_text(json.dumps(DECOMPOSE["forms"][case["form"]]))
    if structure == "rotated":
        structure = tmp_path / "rotated.json"
        structure.write_text(json.dumps(DECOMPOSE["rotated"]))
    argv = ["decompose", "--form", str(form), "--structure", str(structure),
            "--degree", str(DECOMPOSE["forms"][case["form"]]["degree"])]
    assert cli_main(argv + (["--t", case["t"]] if case["t"] else [])) == 0
    got, got_residual = parse_decompose(capsys.readouterr().out)
    want, _ = parse_decompose(case["output"])
    assert [part[0] for part in got] == [part[0] for part in want]
    for (name, got_norm, got_terms), (_, want_norm, want_terms) in zip(got, want):
        assert printed_close(got_norm, want_norm), name
        # rounding leaves ~1e-16 terms where a part vanishes: the index set above RESIDUAL_TOL
        # is pinned, and every coefficient, present or not, is close
        assert ({m for m, c in got_terms.items() if abs(c) > RESIDUAL_TOL}
                == {m for m, c in want_terms.items() if abs(c) > RESIDUAL_TOL}), name
        for m in got_terms.keys() | want_terms.keys():
            assert printed_close(got_terms.get(m, 0.0), want_terms.get(m, 0.0)), (name, m)
    assert got_residual <= RESIDUAL_TOL
