"""Machine-speed reference for the gtorsion benchmark.

The machines this benchmark runs on are shared, and their speed drifts by
up to 60% over tens of seconds.  A fixed loop of exact rational arithmetic
(standard library only, so no change to gtorsion can alter it) is timed
between verdicts; each verdict's wall time is scaled by ``NOMINAL_S`` over
the loop's time around it, which gives its time on a machine of nominal
speed.  Fraction arithmetic, small tuples and dict stores are what the
engine's own time goes to, so both slow down alike.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The loop's median time on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11.7).
NOMINAL_S = 0.011


def _loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        table[(i & 63, i & 7)] = acc
    return acc


def measure() -> float:
    """Wall time of one reference loop, in seconds."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
