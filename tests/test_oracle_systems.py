"""``tools/oracle_systems.py`` captures and times the torsion oracle's linear
systems: one pass on seed 1 finds the SU(3), G2 and Spin(7) groups of the
``rotated`` inputs, and its digest of the solutions does not change between
runs.  No timing is checked."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_systems_one_pass():
    results = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-B", "tools/oracle_systems.py", ROOT, "1", "1"],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    first, second = results
    assert {n: g["systems"] for n, g in first["groups"].items()} == {"20": 9, "35": 18, "56": 18}
    assert first["passes"] == 1 and first["stage1_ms"] > 0 and first["stage2_ms"] > 0
    assert len(first["digest"]) == 64 and first["digest"] == second["digest"]
