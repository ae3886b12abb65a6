"""Run the gtorsion CLI in process on a fixed set of runs and write every
result, so that two checkouts can be compared byte for byte.

    python3 tools/compare_cli.py CHECKOUT SEED OUT.json

CHECKOUT is the root of a gtorsion checkout; its ``src`` and ``bench`` are
imported, so run the tool once per checkout, each in its own process.  The
runs are ``example`` on every fixture in json and in text; ``check``,
``reduce`` and ``extend`` (each in json and in text) and ``reduce
--raw-lee`` on every input that ``bench/gen.py`` generates for the ``rotated`` and ``extend``
workloads at SEED; and the text of the SU(3) quotient of nonintG2 that the
``extend`` workload starts from.  OUT.json maps each run's name to
[exit code, stdout, stderr], so that comparing two checkouts is

    cmp parent.json change.json

The tool uses the standard library only and writes nothing in CHECKOUT:
inputs go to a temporary directory and no bytecode is cached.
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


def _run(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def collect(root: str, seed: int) -> dict:
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import gen
    from gtorsion import cli, registry

    runs = {}
    for name in registry.names():
        for fmt in ("json", "text"):
            runs[f"example {name} {fmt}"] = _run(cli.main, ["example", "--name", name, "--format", fmt])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.gs")
        for workload in ("rotated", "extend"):
            for item in gen.generate(workload, seed):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(item["text"])
                for command, flags in COMMANDS:
                    key = " ".join([workload, item["id"], command, *flags])
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
