"""The benchmark runs end to end on a tiny input and prints its schema.

Only the shape of the result line is checked, never a wall-clock value:
every verdict passes its gates, and every metric named in BENCHMARK.json
is present.  The traced runs also pin the span names that bench/spans.py
looks up in the program, so a renamed scalar method fails here.  The
``rotated`` run is the one that reaches the torsion oracle, so its gates
(oracle agreement, frame invariants, span counts against cProfile) check
the oracle end to end; ``extend`` never calls it.  ``fixtures`` is the one
workload that runs ``reduce``, so its run checks the reducers against the
pinned report hashes and registry expectations.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "workload, trace, section",
    [
        ("extend", 0, "end_to_end"), ("extend", 1, "per_layer"), ("rotated", 1, "per_layer"),
        ("fixtures", 1, "per_layer"),
    ],
)
def test_bench_emits_schema(workload, trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)[section]]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert [n for n in names if n not in result["metrics"]] == []
