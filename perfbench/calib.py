"""Interpreter-speed calibration: measured seconds to reference seconds.

The machines this benchmark runs on share their CPUs, and the same Python
work can take a third longer from one minute to the next.  So every worker
also times a fixed pure-Python kernel, a sparse big-integer polynomial
product like the ones that dominate torsionlab, in short bursts between the
calls it measures.  A duration d measured while the kernel ran at r units
per second is reported as d * r / REFERENCE_RATE: the seconds it would have
taken at the reference speed.  The kernel is the benchmark's own code, so a
change to torsionlab cannot change it.
"""

from __future__ import annotations

import time

# units per second of kernel() on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11
REFERENCE_RATE = 3000.0

_A = {i: 3**40 + 7919 * i for i in range(40)}
_B = {i: 5**30 - 104729 * i for i in range(40)}


def kernel() -> dict:
    out: dict = {}
    for i, x in _A.items():
        for j, y in _B.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


class Calibration:
    """Accumulated kernel units and the seconds they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run(self, budget: float) -> None:
        """At least one kernel unit, then more until `budget` seconds pass."""
        t0 = time.perf_counter()
        while True:
            kernel()
            self.units += 1
            if time.perf_counter() - t0 >= budget:
                break
        self.seconds += time.perf_counter() - t0


def to_reference(seconds: float, units: int, unit_seconds: float) -> float:
    """Seconds measured at units/unit_seconds kernel speed, in reference seconds."""
    return seconds * (units / unit_seconds) / REFERENCE_RATE
