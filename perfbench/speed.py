"""Machine-speed references that rescale measured times to a nominal speed.

The benchmark machine is shared.  The same Python code runs up to 2x
slower for seconds at a time while other tenants load the host (per-second
medians of one fixed loop ranged from 17 to 25 ms, and whole benchmark runs
from 13 to 26 s, on a 2-vCPU Xeon VM).
Timing the work next to a fixed reference and dividing by it removes most
of that swing:

- `calibrate()` times an allocation-heavy loop in the process doing the
  work, and `Sampler` repeats it on a timer while the work runs, except
  while the process has children: the fork-pool workers of `--jobs 2` hold
  both CPUs then, so a calibration would read slow.  Library queries are
  rescaled by the calibrations taken before, during and after them (in a
  45 s test, per-round spread 0.46 -> 0.06).
- `BASELINE_ARGV` is a bare interpreter that imports the stdlib modules the
  CLI imports.  A process (CLI query or worker set-up) is rescaled by the
  baseline processes run just before and after it (spread of 20-query
  medians 0.20 -> 0.02), together with the Sampler calibrations taken in it
  (site/sitecustomize.py) when it runs long enough to take any (spread of
  `verify --n-max 6` 0.21 -> 0.08).

A rescaled time reads as the time on a machine where the reference takes
exactly its nominal time (CAL_NOMINAL_S, BASELINE_NOMINAL_S); the nominal
values are fixed constants, so rescaled times compare across runs and
commits.  Raw times are kept beside them in the result files.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import time
from fractions import Fraction
from itertools import combinations

SAMPLE_EVERY_S = 0.5
CAL_NOMINAL_S = 0.0015
BASELINE_NOMINAL_S = 0.070
BASELINE_ARGV = [
    sys.executable, "-c",
    "import argparse, dataclasses, decimal, fractions, itertools, json, math",
]


def _reference_loop() -> int:
    # A mix of what the measured code does: small-integer row elimination,
    # tuples and dicts, combinations, Fraction and big-integer arithmetic.
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
    total = 0
    for _ in range(12):
        a = [list(r) for r in rows]
        prev = 1
        for k in range(5):
            pivot = a[k][k] or 1
            for i in range(k + 1, 6):
                lead = a[i][k]
                for j in range(k + 1, 6):
                    a[i][j] = (a[i][j] * pivot - lead * a[k][j]) // prev
            prev = pivot
        total += a[5][5]
    table = {}
    for i in range(1500):
        key = (i, i * 3, i ^ 5)
        table[key] = [x * 7919 for x in key]
        total += sum(table[key]) // (i + 1)
    subsets = {c: sum(c) for c in combinations(range(12), 3)}
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    x = 1
    for i in range(1, 200):
        x = x * i + (x >> 3)
    return total + len(subsets) + f.numerator % 7 + x % 5


def calibrate(repeats: int = 3) -> float:
    """Fastest of `repeats` timings of the reference loop, in seconds.  The
    cyclic garbage collector is paused meanwhile: a collection triggered by
    the loop would scan the heap of the work being measured and time that
    heap instead of the machine."""
    best = float("inf")
    paused = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if paused:
            gc.enable()
    return best


def _has_children() -> bool:
    """Whether this process has a child not yet reaped, such as a fork-pool
    worker.  WNOWAIT leaves the child to be reaped by its owner."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


class Sampler:
    """Calibrations taken every SAMPLE_EVERY_S on a timer signal, between
    the bytecodes of the work running in this process, and skipped while
    the process has children.  `spent` is the time the samples took, to be
    taken off the measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame) -> None:
        if _has_children():
            return
        start = time.perf_counter()
        self.samples.append(calibrate(1))
        self.spent += time.perf_counter() - start

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
