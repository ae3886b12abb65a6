"""Benchmark worker: runs verdicts back to back in one process and checks them.

    python3 bench/worker.py --inputs inputs.json --seconds 25 --trace 0

A verdict is one input taken from text to report JSON, the way the command
line takes it: ``registry.run_example`` for a bundled example, otherwise
``parser.parse`` then ``engine.run_check`` or ``engine.run_extend``, then
``Report.to_json``.  One caller sends the next input only when the previous
verdict is done (a closed loop with one client, no think time).  Inputs run
in whole passes, so every pass holds each input once, for about
``--seconds`` (the last pass ends within half a pass of it) and at least
``MIN_VERDICTS`` verdicts.

Only the verdict itself is timed; checking its output happens after the
clock stops.  Each verdict's wall time is also reported at nominal machine
speed (see calib.py).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import calib
from gtorsion import engine, parser, registry

# p80 keeps at least 10 samples beyond it from 50 verdicts on
MIN_VERDICTS = 50
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def verdict(item) -> tuple[str, list[str]]:
    """Report JSON for one input, and the expectation drift for examples."""
    if item["command"] == "example":
        rep, drift = registry.run_example(item["fixture"])
        return rep.to_json(), drift
    doc = parser.parse(item["text"])
    rep = engine.run_check(doc) if item["command"] == "check" else engine.run_extend(doc)
    return rep.to_json(), []


class Checker:
    """Correctness gate for each verdict; every problem fails the verdict."""

    def __init__(self):
        with open(EXPECTED, encoding="utf-8") as fh:
            pinned = json.load(fh)
        self.digests = pinned["fixture_sha256"]
        self.invariants = pinned["rotation_invariants"]
        self.first: dict[str, str] = {}

    def problems(self, item, text: str, drift: list[str]) -> list[str]:
        out = list(drift)
        first = self.first.setdefault(item["id"], text)
        if text != first:
            out.append("report JSON differs from the first pass")
        cmd = item["command"]
        if cmd == "example":
            if hashlib.sha256(text.encode()).hexdigest() != self.digests[item["fixture"]]:
                out.append("report JSON digest differs from the pinned digest")
            return out
        data = json.loads(text)
        if cmd == "check":
            if data.get("torsion_oracle_agree") is not True:
                out.append("torsion_oracle_agree is not true")
            for key, want in self.invariants[item["fixture"]].items():
                if data.get(key) != want:
                    out.append(f"{key} = {data.get(key)!r}, unrotated fixture has {want!r}")
        else:
            for key in ("strong_torsion", "torsion_matches_formula"):
                if data.get(key) is not True:
                    out.append(f"{key} is not true")
            if data.get("kind") != item["target"]:
                out.append(f"kind = {data.get('kind')!r}, expected {item['target']!r}")
        return out


class Loop:
    def __init__(self, inputs, checker: Checker):
        self.inputs = inputs
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None, items=None) -> tuple[list[float], list[float]]:
        """Run every input (or ``items``) once.

        Returns each verdict's wall time, and that time at nominal machine
        speed: scaled by the reference loop timed just before and after it.
        """
        walls, scaled = [], []
        ref_before = calib.measure()
        for item in items or self.inputs:
            if tracer is not None:
                tracer.start_verdict()
            self.attempted += 1
            bad = None
            t0 = time.perf_counter()
            try:
                text, drift = verdict(item)
            except Exception as exc:  # a verdict that raises is a failed verdict
                bad = [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            ref_after = calib.measure()
            walls.append(wall)
            scaled.append(wall * 2 * calib.NOMINAL_S / (ref_before + ref_after))
            ref_before = ref_after
            if bad is None:
                bad = self.checker.problems(item, text, drift)
            if bad:
                self._fail(item, bad)
        return walls, scaled

    def _fail(self, item, bad):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item['id']}: " + "; ".join(bad))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    loop = Loop(inputs, Checker())
    out = {}
    start = time.perf_counter()

    if not args.trace:
        walls, samples = [], []
        last = 0.0  # duration of the last pass: stop when the next would end late
        while len(samples) < MIN_VERDICTS or time.perf_counter() - start + last / 2 < args.seconds:
            t0 = time.perf_counter()
            w, s = loop.run_pass()
            last = time.perf_counter() - t0
            walls += w
            samples += s
        out["walls"] = walls
        out["samples"] = samples
    else:
        from spans import Tracer

        # Check the span counts against cProfile on the first input (a whole
        # pass under both would take minutes); these counts are discarded,
        # the metrics come from the fresh tracer below.
        check = Tracer()
        check.install()
        try:
            out["profile_mismatches"] = check.profile_mismatches(lambda: loop.run_pass(items=inputs[:1]))
        finally:
            check.remove()
        # Alternate untraced and traced passes so drift hits both alike.
        tracer = Tracer()
        untraced, traced = [], []
        last = 0.0
        while not traced or time.perf_counter() - start + last / 2 < args.seconds:
            t0 = time.perf_counter()
            untraced += loop.run_pass()[1]
            tracer.install()
            try:
                traced += loop.run_pass(tracer)[1]
            finally:
                tracer.remove()
            last = time.perf_counter() - t0
        out["untraced"] = untraced
        out["traced"] = traced
        out["layers"] = tracer.metrics(len(traced))
    out["attempted"] = loop.attempted
    out["failed"] = loop.failed
    out["problems"] = loop.problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
