"""CLI behavior: exit codes, report files, determinism, decomposition."""

import json
import os
import re
import subprocess
import sys

import pytest

from spin7 import cli
from spin7.checks import full_report
from spin7.cli import main
from spin7.corpus import VERIFY_TARGETS, build_geometry, geometry_id
from spin7.forms import form_to_json
from spin7.report import VerificationReport
from spin7.structure import canonical_phi_form
from spin7.forms import KForm


def run_cli(*argv):
    return main(list(argv))


# a child's stdout on a pipe is block-buffered, as in a shell, so an output lost at exit shows
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "spin7.cli", *argv],
                          capture_output=True, text=True, env=BUFFERED_ENV)


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


def test_verify_form_overflowing_its_metric_exits_two(tmp_path):
    # the induced metric of 1e200 phi0 is all inf: refused at load, without a numpy warning
    path = tmp_path / "huge_phi.json"
    path.write_text(form_to_json(1e200 * canonical_phi_form()))
    proc = run_cli_process("verify", "--algebra", "su3", "--structure", str(path))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert "not an admissible fundamental form" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv,text,message", [
    (["verify", "--algebra", "su3", "--structure"],
     '{"degree": 1, "terms": [{"idx": 3, "c": 1}]}', "field 'idx' must be a list, got int"),
    (["verify", "--algebra", "su3", "--structure"],
     '{"degree": 4, "terms": 7}', "field 'terms' must be a list, got int"),
    (["verify", "--algebra", "su3", "--structure"],
     '[1, 2]', "a k-form must be an object, got list"),
    (["decompose", "--degree", "2", "--form"],
     '{"degree": 1, "terms": [{"idx": 3, "c": 1}]}', "field 'idx' must be a list, got int"),
    (["verify", "--algebra"],
     '{"dim": 8, "constants": [5]}', "each entry of 'constants' must be an object, got int"),
    *((["verify", "--algebra"], '{"name": %s, "constants": [{"i": 0, "j": 1, "k": 2, "c": 1}]}'
       % name, "field 'name' must be a string") for name in ('["x"]', "3", "null")),
], ids=["idx", "terms", "top-level", "decompose", "constants", "name-list", "name-number",
        "name-null"])
def test_wrong_shaped_json_exits_two_without_traceback(argv, text, message, tmp_path):
    # each of these ended in a TypeError traceback and exit 1 (a name that is
    # not a string, when the mirror algebra's name was made as name + "-mirror")
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run_cli_process(*argv, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert _single_error_line(proc.stderr), proc.stderr
    assert message in proc.stderr


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra"],
    ["verify", "--algebra", "su3", "--structure"],
    ["decompose", "--degree", "4", "--form"],
], ids=["algebra", "structure", "decompose-form"])
def test_deeply_nested_json_exits_two_naming_the_file(argv, tmp_path):
    # a 100,000-deep list ended in a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    proc = run_cli_process(*argv, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert _single_error_line(proc.stderr), proc.stderr
    assert f"{path}: JSON nested too deeply to read" in proc.stderr


@pytest.mark.parametrize("second", [(0, 1, 2), (1, 0, 2)], ids=["same-order", "swapped"])
def test_duplicate_algebra_constant_exits_two(second, tmp_path, capsys):
    # two entries for [e_0, e_1] -> e_2 loaded silently as their sum
    i, j, k = second
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"dim": 8, "constants": [
        {"i": 0, "j": 1, "k": 2, "c": 1}, {"i": i, "j": j, "k": k, "c": 2}]}))
    assert run_cli("verify", "--algebra", str(path)) == 2
    assert capsys.readouterr().err == f"error: duplicate constant for [e_{i}, e_{j}] -> e_2\n"


@pytest.mark.parametrize("argv,text,message", [
    (["verify", "--algebra", "su3", "--structure"], '{"terms": []}', "a k-form needs field 'degree'"),
    (["decompose", "--degree", "4", "--form"], '{"terms": []}', "a k-form needs field 'degree'"),
    (["verify", "--algebra", "su3", "--structure"], '{"degree": 4}', "a k-form needs field 'terms'"),
    (["verify", "--algebra", "su3", "--structure"], '{"degree": 4, "terms": [{"c": 1}]}',
     "each entry of 'terms' needs field 'idx'"),
    (["verify", "--algebra", "su3", "--structure"], '{"degree": 4, "terms": [{"idx": [0, 1, 2, 7]}]}',
     "each entry of 'terms' needs field 'c'"),
    (["verify", "--algebra"], '{"dim": 8, "constants": [{"i": 0, "j": 1, "c": 1}]}',
     "each entry of 'constants' needs field 'k'"),
], ids=["degree", "decompose", "terms", "idx", "c", "k"])
def test_missing_json_field_is_named(argv, text, message, tmp_path, capsys):
    # each of these printed the bare key, e.g. "error: 'degree'"
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run_cli(*argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("which", ["algebra", "structure"])
def test_verify_non_integer_index_exits_two(which, tmp_path):
    # an index read through int() was truncated (1.5 -> 1) and the wrong geometry verified
    path = tmp_path / f"{which}.json"
    if which == "algebra":
        path.write_text('{"name": "x", "dim": 8, "convention": "brackets", '
                        '"constants": [{"i": 2, "j": 3, "k": 1.5, "c": 1}]}')
        argv, field = ["--algebra", str(path)], "'k'"
    else:
        path.write_text('{"degree": 4, "terms": [{"idx": [0.9, 1, 2, 7], "c": -1}]}')
        argv, field = ["--algebra", "su3", "--structure", str(path)], "'idx'"
    proc = run_cli_process("verify", *argv)
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert f"field {field} must be an integer" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_verify_bad_tolerance_exits_two(value, capsys):
    assert run_cli("verify", "--algebra", "abelian", f"--tolerance={value}") == 2
    captured = capsys.readouterr()
    assert _single_error_line(captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_verify_unwritable_out_exits_two(where, tmp_path):
    # a path the report cannot be written to is an input error: exit 2 with
    # one error line, nothing on stdout, no traceback
    out = tmp_path / "no_such_dir" / "r.json" if where == "missing_dir" else tmp_path
    proc = run_cli_process("verify", "--algebra", "abelian", "--format", "json",
                           "--out", str(out))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert str(out) in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "no_such_dir").exists()


def test_verify_power_tower_t_exits_two(capsys):
    # --t is parsed, never evaluated: a power tower is refused at once
    assert run_cli("verify", "--algebra", "abelian", "--structure", "phi_t",
                   "--t", "9**9**9**9") == 2
    captured = capsys.readouterr()
    assert _single_error_line(captured.err) and "Pow is not allowed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("structure", ["remark_b", "canonical", "phi0.json"])
@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_t_without_phi_t_exits_two(command, structure, tmp_path, capsys):
    # t parametrizes phi_t only: with any other structure it was ignored, and a full
    # report or decomposition came out with exit 0
    path = tmp_path / "phi0.json"
    path.write_text(form_to_json(canonical_phi_form()))
    if structure == "phi0.json":
        structure = str(path)
    argv = (["verify", "--algebra", "su3"] if command == "verify"
            else ["decompose", "--form", str(path), "--degree", "4"])
    assert run_cli(*argv, "--structure", structure, "--t", "banana") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _single_error_line(err), err
    assert f"t = 'banana' applies only to the phi_t structure, not to {structure!r}" in err


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


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_decompose_form_overflowing_its_norms_exits_two(degree, tmp_path, capsys):
    # 1e300 e_0..: its parts' squared norms overflow, which printed inf and exited 0
    path = tmp_path / f"huge{degree}.json"
    path.write_text(form_to_json(KForm.monomial(range(degree), 1e300)))
    assert run_cli("decompose", "--form", str(path), "--degree", str(degree)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _single_error_line(err), err
    assert f"{path} overflows double precision" in err


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


# `python -m spin7.cli` leaves through cli.run(), which ends the process with os._exit
# once both streams are flushed: what the process prints and writes must be complete

@pytest.mark.parametrize("target", [("su3", "canonical", None), ("su2su2u1u1", "phi_t", "0.7")],
                         ids=lambda t: geometry_id(*t))
def test_piped_json_report_is_the_library_report_byte_for_byte(target, tmp_path):
    algebra, structure, t = target
    out = tmp_path / "r.json"
    argv = ["verify", "--algebra", algebra, "--structure", structure, "--format", "json",
            "--out", str(out)] + (["--t", t] if t else [])
    proc = subprocess.run([sys.executable, "-m", "spin7.cli", *argv], capture_output=True,
                          env=BUFFERED_ENV)
    text = full_report(build_geometry(algebra, structure, t)).to_json()
    assert proc.returncode == 0
    assert proc.stdout == (text + "\n").encode()
    assert out.read_text() == text
    warning = b"warning: t = 0.7 is outside the corpus values 0, pi/4, 3pi/4; proceeding anyway\n"
    assert proc.stderr == (warning if t else b"")


def test_process_exit_codes_one_and_two(tmp_path):
    coeffs = dict(canonical_phi_form().coeffs)
    coeffs[(0, 1, 2, 7)] = 1.0
    flip = tmp_path / "flip.json"
    flip.write_text(form_to_json(KForm(4, coeffs)))
    proc = run_cli_process("verify", "--algebra", "su3", "--structure", str(flip), "--format", "json")
    assert proc.returncode == 1
    entries = {e["check_id"]: e for e in json.loads(proc.stdout)["entries"]}
    assert entries["contraction_one_index"]["passed"] is False
    proc = run_cli_process("verify", "--algebra", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr) and proc.stdout == ""


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes."""

    def __init__(self, name, log, error=None):
        self.name, self.log, self.error = name, log, error

    def write(self, text):
        return len(text)

    def flush(self):
        self.log.append(f"flush {self.name}")
        if self.error:
            raise self.error


def _stub_run(monkeypatch, outcome, stdout_error=None):
    """Patch main, both streams and os._exit around cli.run; return the log of their calls."""
    log = []

    def fake_main():
        log.append("main")
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log, stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    monkeypatch.setattr(cli.os, "_exit", lambda code: log.append(f"_exit {code}"))
    return log


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_exits_with_mains_code_after_flushing(code, monkeypatch):
    log = _stub_run(monkeypatch, code)
    cli.run()
    assert log == ["main", "flush stdout", "flush stderr", f"_exit {code}"]


def test_run_leaves_through_sys_exit_when_the_flush_fails(monkeypatch):
    log = _stub_run(monkeypatch, 1, stdout_error=BrokenPipeError(32, "Broken pipe"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == "error: cannot write the output: [Errno 32] Broken pipe"
    assert log == ["main", "flush stdout"]


@pytest.mark.parametrize("argv", [["corpus"], ["verify", "--algebra", "su3"]], ids=["corpus", "verify"])
def test_output_into_a_closed_pipe_is_not_a_success(argv):
    # a flush that fails on a 5 kB text drops it, so the teardown's own flush then succeeds:
    # only run()'s handler can keep the exit code from reading 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "spin7.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV)
    finally:
        os.close(write_end)
    assert proc.returncode != 0
    assert "Broken pipe" in proc.stderr


@pytest.mark.parametrize("error", [SystemExit(2), ValueError("boom")], ids=["argparse", "exception"])
def test_run_lets_mains_exceptions_through(error, monkeypatch):
    log = _stub_run(monkeypatch, error)
    with pytest.raises(type(error)):
        cli.run()
    assert log == ["main"]


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


def test_verify_overflowing_constants_name_the_input(tmp_path):
    # so(3) constants 1e150: cubes overflow, so some entry comes out non-finite
    spec = tmp_path / "huge.json"
    spec.write_text('{"name": "huge", "dim": 8, "convention": "brackets", "constants": ['
                    + ", ".join('{"i": %d, "j": %d, "k": %d, "c": 1e150}' % ijk
                                for ijk in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
                    + "]}")
    proc = run_cli_process("verify", "--algebra", str(spec))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert proc.stderr.startswith(
        "error: the structure constants (max |c| = 1e+150) overflow double precision: entry '")
    assert re.search(r"entry '\w+' came out (nan|inf|-inf)$", proc.stderr.strip())


def test_verify_overflowing_soliton_gradient_is_named():
    # su3's constants and phi are of size 1: the gradient is the input that overflows,
    # and the error names it, not the structure constants
    proc = run_cli_process("verify", "--algebra", "su3", "--soliton-df", ",".join(["1e308"] * 8))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert proc.stderr.startswith("error: the soliton gradient's components "
                                  "(max |df| = 1e+308) overflow double precision: entry '")
    assert re.search(r"entry 'soliton_\w+' came out (nan|inf|-inf)$", proc.stderr.strip())


def test_verify_constants_overflowing_the_jacobi_sum_exit_two(tmp_path):
    # so(3) constants 1e160: the algebra is refused on load, before any check runs
    spec = tmp_path / "huge.json"
    spec.write_text('{"name": "huge", "dim": 8, "convention": "brackets", "constants": ['
                    + ", ".join('{"i": %d, "j": %d, "k": %d, "c": 1e160}' % ijk
                                for ijk in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
                    + "]}")
    proc = run_cli_process("verify", "--algebra", str(spec))
    assert proc.returncode == 2
    assert _single_error_line(proc.stderr), proc.stderr
    assert proc.stderr.startswith(
        "error: algebra 'huge': the structure constants (max |c| = 1e+160) overflow")
    assert "entry" not in proc.stderr


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
