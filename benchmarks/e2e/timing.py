"""Speed-normalised timing: the frozen reference kernel and its arithmetic.

The cores of the box this benchmark grew up on change speed between and
within processes (CPU/wall stays at 0.98 while identical code swings
54-80 ``/search``/s; one kernel call takes 0.87 ms now and 1.4 ms half a
second later), so raw wall-clock cannot repeat within a tenth.  A
:class:`SpeedTrace` therefore runs :func:`reference_kernel` — frozen
pure-Python work that follows core speed the way the system under test
does — every :data:`SAMPLE_INTERVAL` seconds for the whole run, from a
timer signal, *inside* whatever operation is executing.  Every timing is
then reported on a nominal machine where that kernel takes
:data:`REF_NOMINAL_MS`.  Time spent waiting for the device (``fsync``)
follows neither core speed nor the program — on this box one flush takes
1 ms in one run and 5 ms in the next — so the runner takes it out of
every interval before scaling and reports it on its own, raw.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Sequence

#: What one kernel call costs on the nominal machine.  A constant of the
#: benchmark: changing it (or the kernel) re-bases every timing metric.
REF_NOMINAL_MS = 2.5
KERNEL_ITERATIONS = 10000
#: Return value of the frozen kernel, pinned by the tests so an edit to
#: the kernel cannot go unnoticed.
KERNEL_RESULT = 1109
#: Seconds between speed samples: short against the half-second over
#: which a core keeps its speed, long against the kernel's own cost.
SAMPLE_INTERVAL = 0.05


def reference_kernel() -> int:
    """The frozen yardstick: dict stores, integer arithmetic, str.join, one sort.

    It allocates no container inside the loop, so it never triggers the
    cyclic collector: a sample taken in the middle of a heap-growing
    operation must not be charged a full collection of that heap.
    """
    table: dict[int, int] = {}
    state = 2005
    parts = ("lean", "middle", "ware")
    joined = ""
    for index in range(KERNEL_ITERATIONS):
        table[state & 1023] = index
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        joined = "-".join(parts)
    return len(sorted(table)) + len(joined) + (state & 0x7F)


class SpeedTrace:
    """Core speed over the life of a run, and the clock that hides its cost.

    :meth:`now` is ``perf_counter`` minus all time spent sampling, so the
    code being timed never sees the kernel calls that interrupt it.
    Positions of the samples are kept on that same clock.
    """

    def __init__(self) -> None:
        self.sampling_seconds = 0.0
        self._at: list[float] = []
        self._ref: list[float] = []
        self._previous_handler = None

    def now(self) -> float:
        return time.perf_counter() - self.sampling_seconds

    def sample(self, signum: int = 0, frame: object = None) -> None:
        started = time.perf_counter()
        reference_kernel()
        ref = time.perf_counter() - started
        self._at.append(started - self.sampling_seconds)
        self._ref.append(ref)
        self.sampling_seconds += time.perf_counter() - started

    def start(self) -> None:
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    @property
    def mean_ref_ms(self) -> float:
        return statistics.mean(self._ref) * 1000.0

    def nominal(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` (on :meth:`now`) would take on the nominal machine.

        Between two samples the kernel is taken to cost the mean of the
        two; the interval is integrated piecewise over those stretches,
        from the last sample before it to the first after it.
        """
        at, ref = self._at, self._ref
        first = max(bisect.bisect_right(at, start) - 1, 0)
        last = min(bisect.bisect_left(at, end), len(at) - 1)
        scaled = 0.0
        for index in range(first, max(last, first + 1)):
            upper = min(index + 1, last)
            lo = start if index == first else at[index]
            hi = end if upper == last else at[upper]
            scaled += (hi - lo) * 2.0 / (ref[index] + ref[upper])
        return scaled * (REF_NOMINAL_MS / 1000.0) if end > start else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0
