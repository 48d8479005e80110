"""A fixed piece of pure-Python work that calibrates the benchmark's clock.

The virtual machines this benchmark runs on change speed while it runs: on
a 2-vCPU VM the same round of operations took 0.39 s of CPU in one phase
and 0.71 s in the next, with phases a few seconds long (see README.md,
"Cost is CPU time in reference units").  The worker therefore times this
reference beside every operation, and ``run.py`` rescales each operation's
CPU time by ``NOMINAL_S / local reference time``.  A time reported by the
benchmark is the CPU time the operation would take on a machine where one
reference unit takes ``NOMINAL_S``.

A unit is rational arithmetic on ``fractions.Fraction``, the kind of work
that dominates affinelab's exact field, and a loop of small-integer and
float arithmetic.  Measured against affinelab's own slowdowns on the
three workloads, the first part alone slows down by more than the program
does when the machine slows, and the second by less; together they slow
down by nearly as much (the program a few percent more).  The unit uses
nothing of affinelab, so a change to the program never changes the
reference.

Only the standard library is used: the worker imports this module before
affinelab, to calibrate its own set-up time.
"""

from __future__ import annotations

import time
from fractions import Fraction

# a fixed scale, within the range a unit took on the machine of the
# README's reference figures (Intel Xeon, Python 3.11): 0.54-0.9 ms of CPU
# as the machine's speed changed
NOMINAL_S = 0.0006
# reference time spent after an operation, as a share of the operation's
# own CPU time; at least one unit is always run
SHARE = 0.03


def _unit() -> int:
    s = Fraction(0)
    for k in range(1, 50):
        s += Fraction(k % 7 + 1, k % 13 + 1) * Fraction(3, k % 5 + 2)
    x, f = s.denominator, 1.0
    for k in range(3000):
        x = (x * 31 + k) & 0xFFFFFF
        f = f * 1.0000001 + 0.5
    return x


def measure(cost: float = 0.0) -> "tuple[float, int]":
    """Run units until they took ``SHARE * cost`` CPU seconds, at least one.

    Returns the CPU seconds they took and how many units ran.
    """
    units = 0
    start = time.process_time()
    while True:
        _unit()
        units += 1
        spent = time.process_time() - start
        if spent >= SHARE * cost:
            return spent, units


def calibrate(units: int) -> "tuple[float, float]":
    """CPU seconds of one unit, as the mean of ``units`` after a warm-up unit.

    Returns that and the CPU seconds the whole calibration took, so that a
    caller timing its own set-up can take the calibration out again.
    """
    start = time.process_time()
    _unit()
    spent, n = 0.0, 0
    while n < units:
        s, k = measure()
        spent, n = spent + s, n + k
    return spent / n, time.process_time() - start
