"""Batch front door: verify geometries, decompose forms, list the corpus.

Exit codes for verify: 0 all applicable checks pass, 1 at least one check
fails, 2 the inputs fail to load or validate, or COMMANDS refuses the command line.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .checks import full_report
from .corpus import (
    ALGEBRA_NAMES,
    _resolve_structure,
    corpus_listing,
    geometry_id,
    get_algebra,
)
from .forms import form_from_dict, norm_sq, read_json
from .geometry import Geometry, SolitonData
from .liealgebra import parse_scalar
from .report import DEFAULT_TOL, NonFiniteResidual
from .structure import Spin7Form, project_lambda2, project_lambda3, project_lambda4


def cmd_verify(args) -> int:
    # inputs too large for double precision overflow into a non-finite residual,
    # which the report refuses: one error line naming the largest input, no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
                raise ValueError(
                    f"--tolerance must be a finite positive number, got {args.tolerance!r}")
            alg = get_algebra(args.algebra)
            phi, warnings = _resolve_structure(args.structure, args.t)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            soliton = (SolitonData([parse_scalar(p) for p in args.soliton_df.split(",")])
                       if args.soliton_df else None)
            geom = Geometry.build(alg, phi, name=geometry_id(args.algebra, args.structure, args.t))
            rep = full_report(geom, soliton, tol=args.tolerance)
        except NonFiniteResidual as exc:
            df = soliton.f_gradient if soliton is not None else np.zeros(1)
            inputs = [("structure constants", "c", float(np.max(np.abs(alg.c)))),
                      ("fundamental form's coefficients", "phi", geom.structure.phi.max_abs()),
                      ("soliton gradient's components", "df", float(np.max(np.abs(df))))]
            what, symbol, size = max(inputs, key=lambda x: x[2])  # ties name the first
            print(f"error: the {what} (max |{symbol}| = {size:.3g}) overflow double precision: "
                  f"entry {exc.check_id!r} came out {exc.residual!r}", file=sys.stderr)
            return 2
        except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    text = rep.to_json()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(text)
    else:
        for line in rep.summary_lines():
            print(line)
    return 0 if rep.all_passed() else 1


def cmd_decompose(args) -> int:
    # a form too large for double precision splits into non-finite parts or norms, which
    # are refused: one error line naming the form, no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            form = form_from_dict(read_json(args.form))
            if form.degree != args.degree:
                raise ValueError(
                    f"form has degree {form.degree}, --degree says {args.degree}")
            phi, warnings = _resolve_structure(args.structure, args.t)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            structure = Spin7Form.from_form(phi)
            project = {2: project_lambda2, 3: project_lambda3, 4: project_lambda4}[args.degree]
            parts = project(form, structure)
            dims = {2: (7, 21), 3: (8, 48), 4: (1, 7, 27, 35)}[args.degree]
            norms = [norm_sq(part, structure.metric) for part in parts]
            for dim, part, norm in zip(dims, parts, norms):
                if not (math.isfinite(norm) and np.all(np.isfinite(part.vec))):
                    raise ValueError(f"the form in {args.form} overflows double precision: "
                                     f"part_{dim} has norm_sq = {norm!r}")
        except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    for dim, part, norm in zip(dims, parts, norms):
        print(f"part_{dim}: norm_sq = {norm:.12g}")
        for idx, c in part.terms():
            print(f"    e_{''.join(map(str, idx))}  {c:+.12g}")
    print(f"recombination residual: {(sum(parts[1:], parts[0]) - form).max_abs():.3e}")
    return 0


def cmd_corpus(args) -> int:
    print(*corpus_listing(), sep="\n")
    return 0


# each command: (function, summary, options); an option is name -> (default, converter,
# choices, required, help), its value read as args.<name>, "--soliton-df" as args.soliton_df
_STRUCTURE = ("canonical", str, None, False, "canonical | phi_t | remark_b | a 4-form JSON file")
COMMANDS = {
    "verify": (cmd_verify, "run the full identity suite on a geometry", {
        "--algebra": (None, str, None, True, f"a corpus name {ALGEBRA_NAMES} or algebra JSON file"),
        "--structure": _STRUCTURE,
        "--t": (None, str, None, False, "rotation parameter for phi_t (number or text like pi/4)"),
        "--soliton-df": (None, str, None, False, "8 comma-separated components of the gradient"),
        "--out": (None, str, None, False, "write the JSON report here"),
        "--tolerance": (DEFAULT_TOL, float, None, False, "the residual bound of every check"),
        "--format": ("text", str, ("json", "text"), False, "the layout printed on stdout")}),
    "decompose": (cmd_decompose, "split a form into irreducible parts", {
        "--form": (None, str, None, True, "path to a serialized k-form"),
        "--degree": (None, int, (2, 3, 4), True, "the form's degree"),
        "--structure": _STRUCTURE, "--t": (None, str, None, False, "the parameter of phi_t")}),
    "corpus": (cmd_corpus, "list shipped geometries", {}),
}


def cmd_help(args) -> int:
    """Print the options of args.command, or of every command when it is None, from COMMANDS."""
    for command in [args.command] if args.command else COMMANDS:
        print(f"usage: spin7 {command} [--help] [options]\n  {COMMANDS[command][1]}")
        for opt, (default, _, choices, required, text) in COMMANDS[command][2].items():
            value = "{%s}" % ",".join(map(str, choices)) if choices else opt[2:].upper()
            extra = " (required)" if required else f" (default {default})" if default else ""
            print(f"  {opt} {value}{extra}\n      {text}")
    return 0


def parse_args(argv: list[str]):
    """(the command's function, the namespace it reads), or ValueError: an option is named in full
    or by a unique prefix, takes the text after '=' or else the next token, and the last wins."""
    command = argv[0] if argv else None
    if command == "-h" or command and len(command) > 2 and "--help".startswith(command):
        return cmd_help, SimpleNamespace(command=None)
    if command not in COMMANDS:
        raise ValueError(f"spin7: the commands are {', '.join(COMMANDS)}"
                         + (f", not {command!r}" if argv else ""))
    (func, _, table), prog = COMMANDS[command], f"spin7 {command}"
    values, tokens = {opt: spec[0] for opt, spec in table.items()}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        found = [name] if name in table else [
            opt for opt in (*table, "--help") if name.startswith("--") and opt.startswith(name)]
        if token == "-h" or found == ["--help"]:
            return cmd_help, SimpleNamespace(command=command)
        if len(found) != 1:
            raise ValueError(f"{prog}: {token!r} matches {' and '.join(found) or 'no option'}")
        _, convert, choices, _, _ = table[opt := found[0]]
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"{prog}: {opt} expects a value")
        try:
            values[opt] = convert(value)
        except ValueError:
            raise ValueError(f"{prog}: {opt} takes {convert.__name__}s, not {value!r}") from None
        if choices and values[opt] not in choices:
            raise ValueError(f"{prog}: {opt} takes one of {choices}, not {value!r}")
    if missing := [opt for opt, spec in table.items() if spec[3] and values[opt] is None]:
        raise ValueError(f"{prog}: missing required option {', '.join(missing)}")
    return func, SimpleNamespace(**{opt[2:].replace("-", "_"): v for opt, v in values.items()})


def main(argv=None) -> int:
    try:
        func, args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:  # parse_args raises only usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return func(args)


def run() -> None:
    """The process entry point: main(), flush, then exit without interpreter teardown,
    which holds nothing spin7 needs; an exception or a failed write exits the ordinary way."""
    try:  # main handles the OSErrors of its inputs and of --out: one here is a failed write
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe: the failed write may drop the text, so never exit 0
        sys.exit(f"error: cannot write the output: {exc}")
    os._exit(code)


if __name__ == "__main__":
    run()
