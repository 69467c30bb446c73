"""Wall time corrected for the speed of a shared host.

On a machine whose cores are shared with other tenants, the same code runs
up to about 1.5 times slower for stretches of seconds to minutes, and its
CPU time slows with it. The stopwatch below samples the host's speed with
a short, fixed, CPU-bound probe every ``SAMPLE_EVERY_S`` seconds (from a
timer signal, in the measured thread) and at every operation boundary. Each
stretch of work between two probes is scaled by the reference probe time
over the mean of the two probes. The sum is the work's wall time at the
host speed the reference was taken at; the raw wall time, probes left out,
is kept beside it.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

# median probe time on the machine the benchmark was defined on (2-core
# Intel Xeon VM, Python 3.11) with its neighbours quiet
PROBE_REFERENCE_S = 0.0026
SAMPLE_EVERY_S = 0.5


def _probe_once() -> float:
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + 0.5)
        table[i & 255] = table.get(i & 255, 0.0) + acc
        heapq.heappush(heap, (acc % 97.0, i))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def probe() -> float:
    """Median time of five probe runs, in seconds."""
    return statistics.median(_probe_once() for _ in range(5))


class Stopwatch:
    """Times operations in raw and reference-speed seconds.

    It starts paused: ``resume()`` starts timing, ``lap()`` ends an
    operation. Use it as a context manager; only one may run at a time,
    since it owns the process's interval timer.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probe_s = 0.0  # time spent probing, timed or not
        self._op_raw = self._op_ref = 0.0
        self._paused = True
        self._probe = probe()
        self._start = time.perf_counter()

    def __enter__(self) -> "Stopwatch":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _advance(self) -> None:
        end = time.perf_counter()
        raw = end - self._start
        p = probe()
        self._op_raw += raw
        self._op_ref += raw * PROBE_REFERENCE_S / ((self._probe + p) / 2)
        self._probe = p
        self._start = time.perf_counter()
        self.probe_s += self._start - end

    def work_clock(self) -> float:
        """``time.perf_counter()`` less the time spent probing."""
        return time.perf_counter() - self.probe_s

    def _sample(self, signum, frame) -> None:
        if not self._paused:
            self._paused = True
            try:
                self._advance()
            finally:
                self._paused = False

    def lap(self, resume: bool = True) -> tuple[float, float]:
        """End the current operation; return its (raw, reference-speed) seconds.

        With ``resume=False`` nothing is timed until ``resume()``.
        """
        self._paused = True
        self._advance()
        raw, ref = self._op_raw, self._op_ref
        self.raw_s += raw
        self.ref_s += ref
        self._op_raw = self._op_ref = 0.0
        if resume:
            self._paused = False
        return raw, ref

    def resume(self) -> None:
        self._start = time.perf_counter()
        self._paused = False
