"""Command line interface.

Subcommands:
  check  FILE        validate, classify torsion, soliton residuals
  reduce FILE        check + canonical symmetry reduction + verifiers
  extend FILE        converse construction (needs structure + flux blocks)
  example --name ID  run a built-in fixture and diff stored expectations

Exit codes: 0 ok, 1 verifier/expectation failure, 2 input error (parse
error, unreadable file, unknown flag, bad flag value such as a --df that
is not closed), 3 structural error, 4 internal error (an unexpected
exception, printed as one line with its type).
"""

from __future__ import annotations

import argparse
import sys

from .engine import run_check, run_extend, run_reduce
from .parser import ParseError, _parse_form, parse_file
from .scalars import GTorsionError
from .structures import KINDS
from . import registry

EXIT_OK = 0
EXIT_VERIFIER = 1
EXIT_INTERNAL = 4


def _common_flags(sub):
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--df", default=None, help="invariant closed 1-form for the potential gradient")


class _ArgumentParser(argparse.ArgumentParser):
    """Turns every argparse error into a ParseError: one line, exit 2."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if any(a.split("=", 1)[0] in ("--backend", "--tol") for a in self._argv):
            message += "; the float backend was removed"
        raise ParseError(message)


def build_parser():
    ap = _ArgumentParser(prog="gtorsion", description=__doc__,
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
    p_ext.add_argument("--target", choices=[k for k, row in KINDS.items() if row.reduces_to], default=None)
    _common_flags(p_ext)

    p_ex = subs.add_parser("example", help="run a built-in fixture against stored expectations")
    p_ex.add_argument("--name", required=True, choices=registry.names())
    p_ex.add_argument("--emit-input", action="store_true", help="print the fixture input file and exit")
    _common_flags(p_ex)
    return ap


def _load(args):
    doc = parse_file(args.file)
    df = None if args.df is None else _parse_form(args.df, doc, 1, "--df")
    return doc, df


def _emit(report, args):
    print(report.to_json() if args.format == "json" else report.to_text())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
        doc, df = _load(args)
        if args.command == "check":
            rep = run_check(doc, df=df)
        elif args.command == "reduce":
            rep = run_reduce(doc, df=df, raw_only=args.raw_lee)
        else:
            rep = run_extend(doc, target=args.target, df=df)
        _emit(rep, args)
    except GTorsionError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
