"""Batch front door: verify geometries, decompose forms, list the corpus.

Exit codes for verify: 0 all applicable checks pass, 1 at least one check
fails, 2 the inputs fail to load or validate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import full_report
from .corpus import (
    ALGEBRA_NAMES,
    build_structure_form,
    corpus_listing,
    geometry_id,
    get_algebra,
)
from .forms import form_from_json, norm_sq
from .geometry import Geometry, SolitonData
from .liealgebra import parse_scalar
from .report import DEFAULT_TOL
from .structure import (
    Spin7Form,
    project_lambda2,
    project_lambda3,
    project_lambda4,
)


def cmd_verify(args) -> int:
    try:
        if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
            raise ValueError(
                f"--tolerance must be a finite positive number, got {args.tolerance!r}")
        alg = get_algebra(args.algebra)
        phi, warnings = build_structure_form(args.structure, args.t)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        soliton = (SolitonData([parse_scalar(p) for p in args.soliton_df.split(",")])
                   if args.soliton_df else None)
        # constants too large for double precision overflow into a non-finite
        # residual, which the report refuses: one error line, no numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            geom = Geometry.build(alg, phi, name=geometry_id(args.algebra, args.structure, args.t))
            rep = full_report(geom, soliton, tol=args.tolerance)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = rep.to_json()
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json":
        print(text)
    else:
        for line in rep.summary_lines():
            print(line)
    return 0 if rep.all_passed() else 1


def cmd_decompose(args) -> int:
    try:
        form = form_from_json(Path(args.form).read_text())
        if form.degree != args.degree:
            raise ValueError(
                f"form has degree {form.degree}, --degree says {args.degree}")
        phi, warnings = build_structure_form(args.structure, args.t)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        structure = Spin7Form.from_form(phi)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.degree == 2:
        named = zip(("part_7", "part_21"), project_lambda2(form, structure))
    elif args.degree == 3:
        named = zip(("part_8", "part_48"), project_lambda3(form, structure))
    else:
        named = zip(("part_1", "part_7", "part_27", "part_35"),
                    project_lambda4(form, structure))
    named = list(named)
    total = None
    for label, part in named:
        print(f"{label}: norm_sq = {norm_sq(part, structure.metric):.12g}")
        for idx, c in part.terms():
            print(f"    e_{''.join(map(str, idx))}  {c:+.12g}")
        total = part if total is None else total + part
    print(f"recombination residual: {(total - form).max_abs():.3e}")
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


if __name__ == "__main__":
    sys.exit(main())
