"""Putting timings on a common machine speed.

On a shared VM the host's speed drifts by a third over minutes, and every
process on the VM slows and speeds up alike.  A fixed pure-Python loop timed
next to a measurement shows how fast the machine ran just then; dividing by
it, and multiplying by the loop's nominal time, takes that drift out.  The
loop touches almost no memory and allocates no containers, so the program's
own state does not move it.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 200_000
# What the loop takes on the speed every figure is put on: about a 2.1 GHz
# Xeon running one thread.
NOMINAL_S = 0.02


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return perf_counter() - start


def on_nominal(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the loop took ``calibration`` seconds, at nominal speed."""
    return seconds * NOMINAL_S / calibration
