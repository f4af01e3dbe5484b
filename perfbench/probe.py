"""Machine-speed probe: a fixed integer kernel timed between jobs.

On a shared host the CPU's speed drifts, by 20-30 % over seconds to
minutes on the reference machine below.  The probe times a fixed fraction-free
determinant (pure Python, never the package under test) on the thread's CPU
clock at most every PROBE_INTERVAL_S, between jobs.  `factor()` is the mean
probe time over REFERENCE_PROBE_S: 1.0 on the reference machine, 1.2 when
the CPU currently runs 20 % slower.  Dividing a measured time by the factor
gives the time on the reference machine.
"""

from __future__ import annotations

import random
import statistics
import time

from checks import bareiss_det

PROBE_INTERVAL_S = 0.1
# Mean probe time on the reference machine: a shared 2-vCPU x86-64 host at
# 2.1 GHz, CPython 3.11.
REFERENCE_PROBE_S = 0.0009

_rng = random.Random(20230728)
_MATRIX = [[_rng.randrange(-3, 4) for _ in range(24)] for _ in range(24)]


class SpeedProbe:
    """Probe samples of one phase of a run, and the wall time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds inside the probe, excluded by callers
        self._next = 0.0

    def tick(self) -> None:
        """Take a sample if PROBE_INTERVAL_S has passed since the last one."""
        start = time.perf_counter()
        if start < self._next:
            return
        cpu = time.thread_time()
        bareiss_det(_MATRIX)
        self.samples.append(time.thread_time() - cpu)
        end = time.perf_counter()
        self.spent += end - start
        self._next = end + PROBE_INTERVAL_S

    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S
