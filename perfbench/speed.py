"""Machine-speed calibration for timing on a shared host.

On a shared 2-core host the same Python code runs up to 2.5x slower for
tens of seconds at a time while other tenants load the machine; the
process is not descheduled (CPU time equals wall time), it just executes
slower.  So the benchmark times a fixed interpreter kernel that does not
use bdnsat between operations, and scales each operation's time by
REFERENCE_KERNEL_S / (kernel time around that operation).  Reported times
are therefore "at the reference speed": the speed at which the kernel
takes REFERENCE_KERNEL_S.  In 3-minute probes on such a host, windows of
40 fixed operations varied in time with a coefficient of variation of
0.20 (sweep) and 0.11 (detect) unscaled, and of 0.05 after scaling.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

# Kernel time on a quiet host of the kind the benchmark was sized on
# (2 cores, Python 3.11).  It fixes the unit of the scaled times only.
REFERENCE_KERNEL_S = 0.001
KERNEL_PASSES = 18
# Sample the kernel at most this often, so it costs a few percent of a run.
SAMPLE_INTERVAL_S = 0.05
# Each operation is scaled by the median of this many nearest samples.
NEAREST_SAMPLES = 31


# A fixed 3-literal clause list over 97 variables, visited the way a
# watched-literal solver visits clauses: list indexing, int comparisons and
# early exits.  Of the kernels tried, its time tracked the slowdown of sweep
# and detect operations most closely.
_CLAUSES = [((i * 37) % 97 + 1, -((i * 53) % 97 + 1), (i * 71) % 97 + 1)
            for i in range(300)]
_WATCHES = [[i for i, clause in enumerate(_CLAUSES) if clause[0] == var]
            for var in range(98)]


def kernel() -> float:
    """Seconds taken by KERNEL_PASSES propagation-like passes over _CLAUSES.

    The garbage collector is paused so that a collection of the garbage an
    operation left behind is not charged to the kernel.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = [0] * 98
        for rep in range(KERNEL_PASSES):
            for var in range(1, 98):
                value[var] = 1 if (var + rep) & 1 else -1
                for index in _WATCHES[var]:
                    for lit in _CLAUSES[index]:
                        x = value[abs(lit)]
                        if x == 0 or (x > 0) == (lit > 0):
                            break
            for var in range(1, 98):
                value[var] = 0
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def scale_now() -> float:
    """Factor that scales a time measured now to the reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(
        kernel() for _ in range(NEAREST_SAMPLES))


class Clock:
    """Records operation times and kernel samples; scales times afterwards."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []  # (start, raw seconds)
        self.samples: list[tuple[float, float]] = []  # (at, kernel seconds)
        self._next_sample = 0.0

    def record(self, start: float, elapsed: float) -> None:
        self.ops.append((start, elapsed))
        now = start + elapsed
        if now >= self._next_sample:
            self.samples.append((now, kernel()))
            self._next_sample = time.perf_counter() + SAMPLE_INTERVAL_S

    def scaled(self) -> list[float]:
        """Each operation's time at the reference speed."""
        at = [t for t, _ in self.samples]
        out = []
        for start, elapsed in self.ops:
            i = bisect.bisect_left(at, start)
            lo = max(0, min(i - NEAREST_SAMPLES // 2,
                            len(at) - NEAREST_SAMPLES))
            nearby = [k for _, k in self.samples[lo:lo + NEAREST_SAMPLES]]
            out.append(elapsed * REFERENCE_KERNEL_S / statistics.median(nearby))
        return out

    def slowdown(self) -> float:
        """Median kernel time over the reference: 1.0 means reference speed."""
        return statistics.median(k for _, k in self.samples) / REFERENCE_KERNEL_S
