"""Reference passes and calibration of measured times.

The virtual CPUs this benchmark runs on change speed by up to a factor of
two within a fraction of a second, as other tenants load the physical core.
A time measured alone therefore says little.  The benchmark pins itself
(and the children it starts) to one CPU, and a helper thread in the process
doing the measured work runs a short reference pass, fixed work in stdlib
``Fraction`` and ``int`` arithmetic of the kind the program does, every
``INTERVAL`` seconds.  A timed stretch is rescaled by the mean duration of
the passes that ran inside it:

    calibrated = (measured - passes inside) * REF_SECONDS / mean(pass durations)

A calibrated time reads as "seconds on a CPU where one reference pass takes
REF_SECONDS".  It moves when the program does more or less work, and stays
put when the CPU as a whole gets faster or slower.
"""
from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction
from math import gcd

#: Seconds one reference pass takes at the reference speed: the median pass
#: on a 2-vCPU x86-64 VM with CPython 3.11 while its core is shared.
REF_SECONDS = 0.0015
#: Seconds between the end of one reference pass and the start of the next.
INTERVAL = 0.02
#: Stretches with fewer passes inside use this many nearest passes.
NEAREST = 3

_POINTS = tuple(Fraction(p, q) for p, q in ((0, 1), (1, 1), (2, 1), (-1, 1),
                                             (1, 2), (3, 1), (-2, 3), (5, 4)))

def _work() -> int:
    """The reference pass: 56 rational expressions and their integer hash."""
    acc = Fraction(0)
    h = 0
    for a in _POINTS:
        for b in _POINTS:
            if a != b:
                v = (a - b) * (a + b) / (a * a + b * b + 1)
                acc += v
                h = (h * 31 + gcd(v.numerator, 360) + v.denominator) % 1_000_003
    return h ^ acc.denominator


def pin_to_one_cpu() -> bool:
    """Restrict this process, and the processes it starts, to its first
    allowed CPU, so the reference passes run where the measured work runs.
    Returns False where the system refuses."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        return False
    return True


def calibrate(passes, t0: float, t1: float) -> float:
    """Calibrated seconds of the stretch [t0, t1], given the reference
    passes (start, end) that ran on the same CPU around it."""
    inside = [(s, e) for s, e in passes if s >= t0 and e <= t1]
    busy = sum(e - s for s, e in inside)
    if len(inside) >= NEAREST:
        durations = [e - s for s, e in inside]
    else:
        mid = (t0 + t1) / 2
        near = sorted(passes, key=lambda p: abs((p[0] + p[1]) / 2 - mid))[:NEAREST]
        durations = [e - s for s, e in near]
    return (t1 - t0 - busy) * REF_SECONDS / statistics.mean(durations)


class Sampler:
    """Reference passes on a helper thread while the block runs.

        with Sampler() as clock:
            t0 = time.perf_counter(); work(); t1 = time.perf_counter()
            seconds = clock.calibrate(t0, t1)
    """

    def __init__(self):
        self.passes: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            t0 = time.perf_counter()
            _work()
            self.passes.append((t0, time.perf_counter()))
            if self._stop.wait(INTERVAL):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def calibrate(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the stretch [t0, t1]; waits for NEAREST
        passes to start after t1 if need be."""
        while sum(1 for s, _ in self.passes[-NEAREST:] if s > t1) < NEAREST:
            time.sleep(INTERVAL)
        return calibrate(self.passes, t0, t1)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from raw to calibrated seconds over [t0, t1]."""
        return self.calibrate(t0, t1) / (t1 - t0) if t1 > t0 else 1.0
