"""CLI behavior: exit codes, report files, determinism, decomposition."""

import json
import subprocess
import sys

import pytest

from spin7.cli import main
from spin7.corpus import VERIFY_TARGETS, geometry_id
from spin7.forms import form_to_json
from spin7.report import VerificationReport
from spin7.structure import canonical_phi_form
from spin7.forms import KForm


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "spin7.cli", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("target", VERIFY_TARGETS,
                         ids=lambda t: geometry_id(*t))
def test_verify_corpus_targets_exit_zero(target, tmp_path, capsys):
    algebra, structure, t = target
    argv = ["verify", "--algebra", algebra, "--structure", structure,
            "--out", str(tmp_path / "report.json")]
    if t is not None:
        argv += ["--t", repr(t)]
    assert run_cli(*argv) == 0
    rep = VerificationReport.from_json((tmp_path / "report.json").read_text())
    assert rep.all_passed()


def test_verify_json_format_matches_out_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("verify", "--algebra", "abelian", "--format", "json",
                   "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.strip() == out.read_text().strip()
    json.loads(stdout)  # well-formed


def test_verify_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run_cli("verify", "--algebra", "su3", "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_corrupted_form_exits_one(tmp_path, capsys):
    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0
    bad = tmp_path / "bad_phi.json"
    bad.write_text(form_to_json(KForm(4, coeffs)))
    code = run_cli("verify", "--algebra", "su2su2u1u1", "--structure", str(bad),
                   "--out", str(tmp_path / "rep.json"))
    assert code == 1
    rep = VerificationReport.from_json((tmp_path / "rep.json").read_text())
    assert not rep.all_passed()
    assert len(rep.entries) >= 25


def test_verify_load_failure_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("verify", "--algebra", str(missing)) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{\"name\": \"x\", \"dim\": 7}")
    assert run_cli("verify", "--algebra", str(broken)) == 2


def _single_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_verify_non_finite_constant_exits_two(value, tmp_path, capsys):
    # Python's json reads these as floats; they must not reach the checks
    spec = tmp_path / "alg.json"
    spec.write_text('{"name": "x", "dim": 8, "convention": "brackets", '
                    '"constants": [{"i": 2, "j": 3, "k": 1, "c": %s}]}' % value)
    assert run_cli("verify", "--algebra", str(spec)) == 2
    assert _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_form_coefficient_exits_two(value, tmp_path, capsys):
    text = form_to_json(canonical_phi_form())
    assert '"c": -1.0' in text
    path = tmp_path / "phi.json"
    path.write_text(text.replace('"c": -1.0', f'"c": {value}', 1))
    assert run_cli("verify", "--algebra", "abelian", "--structure", str(path)) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "not finite" in err
    assert run_cli("decompose", "--form", str(path), "--degree", "4") == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and "not finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_verify_bad_tolerance_exits_two(value, capsys):
    assert run_cli("verify", "--algebra", "abelian", f"--tolerance={value}") == 2
    captured = capsys.readouterr()
    assert _single_error_line(captured.err)
    assert captured.out == ""


def test_verify_power_tower_t_exits_two(capsys):
    # --t is parsed, never evaluated: a power tower is refused at once
    assert run_cli("verify", "--algebra", "abelian", "--structure", "phi_t",
                   "--t", "9**9**9**9") == 2
    captured = capsys.readouterr()
    assert _single_error_line(captured.err) and "Pow is not allowed" in captured.err
    assert captured.out == ""


def test_verify_heisenberg_reports_probe_failures(tmp_path, capsys):
    # the generic smoke entry fails the pair-symmetry probes by design;
    # the report is still complete and the exit code says "checks failed"
    out = tmp_path / "heis.json"
    assert run_cli("verify", "--algebra", "heisenberg", "--out", str(out)) == 1
    rep = VerificationReport.from_json(out.read_text())
    failing = {e.check_id for e in rep.failed()}
    assert "riemannian_first_bianchi" in failing
    assert all("bianchi_with_torsion" not in c for c in failing)


def test_verify_soliton_flag(capsys):
    code = run_cli("verify", "--algebra", "su2su2u1u1",
                   "--soliton-df", "0,0,0,0,0,0,0,0")
    assert code == 0


def test_verify_phi_t_warning_for_noncorpus_t(capsys):
    assert run_cli("verify", "--algebra", "su2su2u1u1", "--structure", "phi_t",
                   "--t", "0.3") == 0
    assert "outside the corpus values" in capsys.readouterr().err


def test_decompose_canonical_form(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(form_to_json(canonical_phi_form()))
    assert run_cli("decompose", "--form", str(path), "--degree", "4") == 0
    out = capsys.readouterr().out
    assert "part_1: norm_sq = 336" in out
    assert "part_7: norm_sq = 0" in out
    assert "recombination residual: 0.000e+00" in out


def test_decompose_degree_mismatch(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(form_to_json(canonical_phi_form()))
    assert run_cli("decompose", "--form", str(path), "--degree", "2") == 2


def test_decompose_2form(tmp_path, capsys):
    beta = (6.0 / 7.0) * (KForm.monomial((5, 6)) - KForm.monomial((1, 2)))
    path = tmp_path / "beta.json"
    path.write_text(form_to_json(beta))
    assert run_cli("decompose", "--form", str(path), "--degree", "2") == 0
    out = capsys.readouterr().out
    assert "part_7: norm_sq = 0" in out


def test_corpus_listing(capsys):
    assert run_cli("corpus") == 0
    out = capsys.readouterr().out
    for name in ("abelian", "su2su2u1u1", "su3", "heisenberg",
                 "canonical", "phi_t", "remark_b"):
        assert name in out


def test_console_entry_point_runs():
    proc = run_cli_process("corpus")
    assert proc.returncode == 0
    assert "su2su2u1u1" in proc.stdout


def test_verify_names_file_path_geometries_by_stem(tmp_path, capsys):
    alg = tmp_path / "myalg.json"
    alg.write_text('{"name": "x", "dim": 8, "convention": "brackets", '
                   '"constants": [{"i": 2, "j": 3, "k": 1, "c": 1}]}')
    phi = tmp_path / "myphi.json"
    phi.write_text(form_to_json(canonical_phi_form()))
    for structure, expected in ((str(phi), "myalg+myphi"), ("canonical", "myalg+canonical"),
                                ("phi_t", "myalg+phi_t(0)")):
        run_cli("verify", "--algebra", str(alg), "--structure", structure, "--format", "json")
        assert json.loads(capsys.readouterr().out)["geometry_id"] == expected


def test_verify_huge_constant_exits_two(tmp_path):
    # max|c|^2 overflows: the Jacobi bound must not raise OverflowError
    spec = tmp_path / "alg.json"
    spec.write_text('{"name": "x", "dim": 8, "convention": "brackets", '
                    '"constants": [{"i": 2, "j": 3, "k": 1, "c": 1e200}]}')
    proc = run_cli_process("verify", "--algebra", str(spec))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr)


@pytest.mark.parametrize("value", ["1e120", "1e150"])
def test_verify_huge_so3_constants_end_without_traceback(value, tmp_path):
    # [e_1, e_2] = c e_3 and cyclic.  Where the first non-finite number
    # appears depends on the BLAS, so the exit code is not pinned; exit 2
    # must come with one error line and nothing else on stderr
    spec = tmp_path / "huge.json"
    spec.write_text('{"name": "huge", "dim": 8, "convention": "brackets", "constants": ['
                    + ", ".join('{"i": %d, "j": %d, "k": %d, "c": %s}' % (i, j, k, value)
                                for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
                    + "]}")
    proc = run_cli_process("verify", "--algebra", str(spec))
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1, 2)
    if proc.returncode == 2:
        assert _single_error_line(proc.stderr)
    else:
        assert proc.stderr == ""
