"""Capture the torsion oracle's linear systems and time ``linsolve`` on them.

    python3 tools/oracle_systems.py CHECKOUT SEED [PASSES]

CHECKOUT is the root of a gtorsion checkout; its ``src`` and ``bench`` are
imported, so run the tool once per checkout, each in its own process.  For
every ``rotated`` input that ``bench/gen.py`` generates at SEED, the tool
runs ``structures.solve_skew_torsion`` once and keeps the rows it hands to
linsolve: the Stage-1 rows (``echelon``) and the Stage-2 rows
(``solve_unique_sparse``).  Stage 2 is built from Stage 1's pivots, so each
checkout is timed on the systems it builds itself.  It then times
``echelon`` on every Stage-1 system and ``solve_unique_sparse`` on every
Stage-2 system, PASSES times (default 40), and prints one JSON object: per
unknown count (20 for SU(3), 35 for G2, 56 for Spin(7)) the number of
systems and the best pass of each stage in ms, the best pass of the whole
set, and ``digest``, a SHA-256 of every Stage-1 rank and every Stage-2
solution in lowest terms.  The digest depends on neither the pivots nor the
solution's denominator, so two checkouts that solve alike print the same
one.

The garbage collector is off while timing.  The tool uses the standard
library only and writes nothing in CHECKOUT: no bytecode is cached, and
``bench/`` is read, not changed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
from fractions import Fraction


def capture(root: str, seed: int):
    """The checkout's linsolve, the field and both stages' rows of every
    ``rotated`` input at ``seed``, in generation order."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import gen
    from gtorsion import linsolve, structures
    from gtorsion.parser import parse

    systems = []
    echelon, solve = structures.echelon, structures.solve_unique_sparse

    def spy_echelon(rows, field):
        systems[-1]["stage1"] = [(dict(p), dict(q)) for p, q in rows]
        return echelon(rows, field)

    def spy_solve(rows, nunknowns, field):
        systems[-1]["stage2"] = [(dict(p), dict(q)) for p, q in rows]
        systems[-1]["unknowns"] = nunknowns
        return solve(rows, nunknowns, field)

    structures.echelon, structures.solve_unique_sparse = spy_echelon, spy_solve
    try:
        for item in gen.generate("rotated", seed):
            s = parse(item["text"]).structure()
            systems.append({"id": item["id"], "field": s.field})
            structures.solve_skew_torsion(s)
    finally:
        structures.echelon, structures.solve_unique_sparse = echelon, solve
    return linsolve, systems


def digest(linsolve, systems) -> str:
    out = []
    for system in systems:
        field = system["field"]
        rank = len(linsolve.echelon(system["stage1"], field))
        den, p, q = linsolve.solve_unique_sparse(system["stage2"], system["unknowns"], field)
        x = [[str(Fraction(p.get(c, 0), den)), str(Fraction(q.get(c, 0), den))] for c in range(system["unknowns"])]
        out.append([system["id"], rank, x])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def timings(linsolve, systems, passes: int) -> dict:
    groups = {}
    for system in systems:
        groups.setdefault(system["unknowns"], []).append(system)
    best = {(n, stage): float("inf") for n in groups for stage in (1, 2)}
    total = float("inf")
    echelon, solve = linsolve.echelon, linsolve.solve_unique_sparse
    clock = time.perf_counter
    gc.disable()
    try:
        for _ in range(passes):
            this = 0.0
            for n, group in groups.items():
                t0 = clock()
                for system in group:
                    echelon(system["stage1"], system["field"])
                t1 = clock()
                for system in group:
                    solve(system["stage2"], n, system["field"])
                t2 = clock()
                best[n, 1] = min(best[n, 1], t1 - t0)
                best[n, 2] = min(best[n, 2], t2 - t1)
                this += t2 - t0
            total = min(total, this)
    finally:
        gc.enable()
    return {
        "groups": {str(n): {"systems": len(group), "stage1_ms": round(1e3 * best[n, 1], 3),
                            "stage2_ms": round(1e3 * best[n, 2], 3)} for n, group in sorted(groups.items())},
        "stage1_ms": round(1e3 * sum(best[n, 1] for n in groups), 3),
        "stage2_ms": round(1e3 * sum(best[n, 2] for n in groups), 3),
        "best_pass_ms": round(1e3 * total, 3),
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    root, seed = os.path.abspath(args[0]), int(args[1])
    passes = int(args[2]) if len(args) == 3 else 40
    if passes < 1:
        sys.stderr.write("PASSES must be at least 1\n")
        return 2
    linsolve, systems = capture(root, seed)
    result = {"seed": seed, "passes": passes, **timings(linsolve, systems, passes), "digest": digest(linsolve, systems)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
