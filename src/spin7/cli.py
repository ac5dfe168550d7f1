"""Batch front door: verify geometries, decompose forms, list the corpus.

Exit codes for verify: 0 all applicable checks pass, 1 at least one check
fails, 2 the inputs fail to load or validate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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
    for line in corpus_listing():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin7",
        description="verification engine for Spin(7)-structures with torsion "
                    "on 8-dimensional Lie-group frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full identity suite on a geometry")
    p_verify.add_argument("--algebra", required=True,
                          help=f"corpus name {ALGEBRA_NAMES} or path to an algebra JSON file")
    p_verify.add_argument("--structure", default="canonical",
                          help="canonical | phi_t | remark_b | path to a 4-form JSON file")
    p_verify.add_argument("--t", default=None,
                          help="rotation parameter for phi_t (number or text like pi/4)")
    p_verify.add_argument("--soliton-df", default=None,
                          help="8 comma-separated components of the potential gradient")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="split a form into irreducible parts")
    p_dec.add_argument("--form", required=True, help="path to a serialized k-form")
    p_dec.add_argument("--degree", type=int, required=True, choices=(2, 3, 4))
    p_dec.add_argument("--structure", default="canonical",
                       help="canonical | phi_t | remark_b | path to a 4-form JSON file")
    p_dec.add_argument("--t", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_corpus = sub.add_parser("corpus", help="list shipped geometries")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    """The process entry point: main(), flush, then exit without interpreter teardown,
    which holds nothing spin7 needs; an exception or a failed flush exits the ordinary way."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe: the failed flush may drop the text, so never exit 0
        sys.exit(f"error: cannot write the output: {exc}")
    os._exit(code)


if __name__ == "__main__":
    run()
