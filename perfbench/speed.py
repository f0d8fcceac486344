"""Machine-speed reference for the benchmark's timings.

On a shared machine the same CPU-bound Python work takes anywhere from
1x to 3x its fastest time, drifting over seconds to minutes, and process
CPU time drifts with it.  A raw wall-clock median therefore moves by
more than any useful regression bound between two runs of one commit.

Every phase interleaves a fixed pure-Python calibration loop
(:func:`reference_work`) with its timed operations, outside their
timed regions, and reports times in *reference milliseconds*:
``ref_ms = wall_ms * NOMINAL_MS / calibration_ms``, where
``calibration_ms`` is the median of the latest calibration samples.  A
reference millisecond is a wall-clock millisecond on a machine where
the calibration loop takes NOMINAL_MS.  The calibration loop is
benchmark code, so a change to the program moves reference times
exactly as it moves wall times; only the machine's speed is divided
out.  Raw wall-clock figures are printed next to the reference ones.

Set-up time is mostly start-up work (a new interpreter, imports, page
faults), which tracks the calibration loop poorly; :func:`startup_factor`
scales it by a reference process start instead.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

#: Calibration-loop time, in ms, that defines one reference ms.
NOMINAL_MS = 1.0
#: Wall time, in ms, of the reference process start that defines one
#: reference ms of start-up work (see startup_factor).
NOMINAL_START_MS = 50.0
#: The reference process: the interpreter importing a fixed set of
#: standard-library modules, about 50 ms on a quiet machine.
REFERENCE_START = ("import argparse, dataclasses, fractions, json, "
                   "statistics, subprocess, typing")
#: Minimum wall time between two calibration samples.
INTERVAL_S = 0.02
#: Calibration samples the current factor is the median of.
WINDOW = 5


def reference_work() -> int:
    """A fixed mix of the operations the program spends its time on:
    integer arithmetic, small function calls, and tuple-keyed dict
    reads and writes.  It stays in cache on purpose: between a slow and
    a fast machine state it speeds up about as much as the execute
    kernels do, while a loop that also misses cache speeds up more and
    over-corrects (perfbench/NOTES.md)."""
    table = {}
    total = 0
    for i in range(1500):
        key = (i % 37, i // 37)
        table[key] = table.get((key[0] - 1, key[1]), 0) + (i * 7) % 13
        total += _step(i, key[0])
    return total + len(table)


def _step(a: int, b: int) -> int:
    return (a * b + 3) // 5 - max(a, b)


class Speed:
    """Calibration samples of one process and the current scale factor
    from wall time to reference time."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        elapsed = (time.perf_counter() - t0) * 1000.0
        self.samples.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def tick(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Reference ms per wall ms, from the latest samples."""
        if not self.samples:
            self.sample()
        return NOMINAL_MS / statistics.median(self.samples[-WINDOW:])

    def settled_factor(self, samples: int = 9) -> float:
        """A fresh factor from *samples* back-to-back samples (for
        one-off timings such as set-up)."""
        for _ in range(samples):
            self.sample()
        return NOMINAL_MS / statistics.median(self.samples[-samples:])


def startup_factor(samples: int = 3) -> float:
    """Reference ms per wall ms for start-up work -- a new interpreter,
    module imports, page faults -- which slows down on a busy machine
    less than the calibration loop does.  Measured by starting the
    REFERENCE_START process *samples* times."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_START], check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return NOMINAL_START_MS / statistics.median(times)
