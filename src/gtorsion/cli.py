"""Command line interface.

Subcommands:
  check  FILE        validate, classify torsion, soliton residuals
  reduce FILE        check + canonical symmetry reduction + verifiers
  extend FILE        converse construction (needs structure + flux blocks)
  example --name ID  run a built-in fixture and diff stored expectations

Exit codes: 0 ok, 1 verifier/expectation failure, 2 input error (parse
error, unreadable file, bad flag value such as a --df that is not closed),
3 structural error.
"""

from __future__ import annotations

import argparse
import sys

from .engine import run_check, run_extend, run_reduce
from .forms import GeometryError
from .frames import FrameError
from .parser import ParseError, _parse_form, parse_file
from .reduction import ReductionError
from .scalars import NotRepresentable
from .soliton import PreconditionError
from .structures import StructureError
from . import registry

EXIT_OK = 0
EXIT_VERIFIER = 1
EXIT_PARSE = 2
EXIT_STRUCTURE = 3


def _common_flags(sub):
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--df", default=None, help="invariant closed 1-form for the potential gradient")


def build_parser():
    ap = argparse.ArgumentParser(prog="gtorsion", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = ap.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="classify torsion of the structure in FILE")
    p_check.add_argument("file")
    _common_flags(p_check)

    p_red = subs.add_parser("reduce", help="check + canonical symmetry reduction")
    p_red.add_argument("file")
    p_red.add_argument("--raw-lee", action="store_true",
                       help="report only the unnormalized reduction (Lee-dual insertion)")
    _common_flags(p_red)

    p_ext = subs.add_parser("extend", help="central extension by a closed flux")
    p_ext.add_argument("file")
    p_ext.add_argument("--target", choices=["g2", "spin7"], default=None)
    _common_flags(p_ext)

    p_ex = subs.add_parser("example", help="run a built-in fixture against stored expectations")
    p_ex.add_argument("--name", required=True, choices=registry.names())
    p_ex.add_argument("--emit-input", action="store_true", help="print the fixture input file and exit")
    _common_flags(p_ex)
    return ap


def _load(args):
    doc = parse_file(args.file)
    df = None
    if args.df is not None:
        df = _parse_form(args.df, doc, 1, "--df")
    declared = df if df is not None else doc.df
    if declared is not None and not doc.frame().d(declared).is_zero():
        raise ParseError("df must be a closed 1-form: d(df) != 0")
    return doc, df


def _emit(report, args):
    print(report.to_json() if args.format == "json" else report.to_text())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            doc, df = _load(args)
            _emit(run_check(doc, df=df), args)
            return EXIT_OK
        if args.command == "reduce":
            doc, df = _load(args)
            rep = run_reduce(doc, df=df, raw=args.raw_lee)
            _emit(rep, args)
            return EXIT_OK
        if args.command == "extend":
            doc, df = _load(args)
            _emit(run_extend(doc, target=args.target, df=df), args)
            return EXIT_OK
        if args.command == "example":
            if args.emit_input:
                sys.stdout.write(registry.input_text(args.name))
                return EXIT_OK
            rep, failures = registry.run_example(args.name)
            _emit(rep, args)
            if failures:
                sys.stderr.write("expectation drift:\n")
                for f in failures:
                    sys.stderr.write(f"  {f}\n")
                return EXIT_VERIFIER
            return EXIT_OK
    except (ParseError, FrameError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (GeometryError, StructureError, ReductionError, PreconditionError, NotRepresentable) as exc:
        sys.stderr.write(f"structure error: {exc}\n")
        return EXIT_STRUCTURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
