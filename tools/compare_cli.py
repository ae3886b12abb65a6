"""Run the gtorsion CLI in process on a fixed set of runs and write every
result, so that two checkouts can be compared byte for byte.

    python3 tools/compare_cli.py CHECKOUT SEED OUT.json

CHECKOUT is the root of a gtorsion checkout; its ``src``, ``bench`` and
``tests/conftest.py`` are imported, so run the tool once per checkout, each
in its own process.  The runs are ``example`` on every fixture in json and
in text; ``check``, ``reduce`` and ``extend`` (each in json and in text)
and ``reduce --raw-lee`` on every input that ``bench/gen.py`` generates for
the ``rotated`` and ``extend`` workloads at SEED, on every fixture in band
shears 1-3 (non-identity metrics), on S^3 x T^4 and the hyperbolic G2 and
Spin(7) inputs (non-unimodular), and on the inputs of ``MALFORMED`` (the
Jacobi gate, and terms whose signs and sums cancel); and the text of the
SU(3) quotient of nonintG2 that the ``extend`` workload starts from.
OUT.json maps each run's name to [exit code, stdout, stderr], so that
comparing two checkouts is

    cmp parent.json change.json

The sheared and the non-unimodular inputs come from the checkout's
``tests/conftest.py``, so the tool needs pytest importable; otherwise it
uses the standard library only.  It writes nothing in CHECKOUT: inputs go
to a temporary directory and no bytecode is cached.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

COMMANDS = [
    ("check", ["--format", "json"]),
    ("check", ["--format", "text"]),
    ("reduce", ["--format", "json"]),
    ("reduce", ["--format", "text"]),
    ("reduce", ["--raw-lee", "--format", "json"]),
    ("extend", ["--format", "json"]),
    ("extend", ["--format", "text"]),
]


# inputs for the Jacobi gate (over QQ and QQ(sqrt3), and with chains whose
# signs and repeats sum to its terms) and for the parser's sign and sum
# paths: a degenerate omega whose terms cancel and an unsorted chain leaving
# the G2 orbit end in errors; a sqrt(2) differential summing to 0 and a
# repeated index (a zero term) parse to a valid structure
MALFORMED = {
    "jacobi": "dim 4\nframe e1 e2 e3 e4\nd e1 = e3^e4\nd e4 = e1^e2\nstructure ah\nomega = e1^e2 + e3^e4\n",
    "jacobi_signs": "dim 4\nframe e1 e2 e3 e4\nd e1 = e4^e3 + 2*e3^e4\nd e4 = e2^e1 - 1/2*e2^e1 + 3/2*e1^e2\n"
                    "structure ah\nomega = e1^e2 + e3^e4\n",
    "jacobi_sqrt3": "dim 4\nfield sqrt 3\nframe e1 e2 e3 e4\nd e1 = sqrt3*e3^e4\nd e4 = e1^e2/sqrt3 + e2^e1\n"
                    "structure ah\nomega = e1^e2 + e3^e4\n",
    "cancel": "dim 6\nframe e1 e2 e3 e4 e5 e6\nstructure su3\nomega = e1^e2 + e2^e1 + e3^e4 + e5^e6\nOmega+ = model\n",
    "sqrt_cancel": "dim 7\nfield sqrt 2\nframe e1 e2 e3 e4 e5 e6 e7\n"
                   "d e1 = sqrt2*e2^e3 - 2/sqrt2*e3^e2 - 2*sqrt2*e2^e3\nstructure g2\nphi = model\n",
    "repeated": "dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nstructure g2\nphi = e1^e2^e3 + e1^e4^e5 + e1^e6^e7"
                " + e2^e4^e6 - e2^e5^e7 - e3^e4^e7 - e3^e5^e6 + e1^e1^e2\n",
    "unsorted": "dim 7\nframe e1 e2 e3 e4 e5 e6 e7\nstructure g2\nphi = e2^e1^e3 + e1^e4^e5 + e1^e6^e7"
                " + e2^e4^e6 - e2^e5^e7 - e3^e4^e7 - e3^e5^e6\n",
}


def _run(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def collect(root: str, seed: int) -> dict:
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench"), os.path.join(root, "tests")]
    import conftest
    import gen
    from gtorsion import cli, registry

    runs = {}
    for name in registry.names():
        for fmt in ("json", "text"):
            runs[f"example {name} {fmt}"] = _run(cli.main, ["example", "--name", name, "--format", fmt])
    inputs = [(workload, item["id"], item["text"]) for workload in ("rotated", "extend")
              for item in gen.generate(workload, seed)]
    inputs += [("sheared", f"{name} step {step}", conftest.sheared_text(registry.input_text(name), step))
               for name in registry.names() for step in (1, 2, 3)]
    inputs += [("other", name, getattr(conftest, name)) for name in ("S3XT4_G2", "HYPERBOLIC_G2", "HYPERBOLIC_SPIN7")]
    inputs += [("malformed", name, text) for name, text in MALFORMED.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.gs")
        for group, ident, text in inputs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command, flags in COMMANDS:
                key = " ".join([group, ident, command, *flags])
                runs[key] = _run(cli.main, [command, path, *flags])
    runs["su3_quotient_of_nonintG2"] = [0, gen.su3_quotient_of_nonintG2(), ""]
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        sys.stderr.write(__doc__)
        return 2
    root, seed, out = args
    runs = collect(os.path.abspath(root), int(seed))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, ensure_ascii=False, indent=1)
        fh.write("\n")
    print(f"{len(runs)} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
