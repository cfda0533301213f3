"""Machine-speed calibration for times taken on a shared, fluctuating CPU.

On the reference machine (2 shared vCPUs) the same op swings by up to 60 %
in wall time within a minute while its process is never descheduled: a
neighbour's load slows the shared core itself, so CPU time swings alike.
The benchmark therefore times a fixed kernel of its own, shaped like the
program's work (small complex numpy arrays, Python objects, JSON), on a
timer all through the timed phase, and reports each op's wall time scaled
by ``REFERENCE_S / kernel time``: the time the op would take on the
machine at the speed where the kernel takes ``REFERENCE_S``. The kernel is
the benchmark's code, not the program's; README.md records A/B runs with
slowed copies of the program in which the scaled and the wall ratios agree.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

#: Kernel time (s) at which scaled times equal wall times; the kernel's
#: median time on the reference machine in its quiet spells.
REFERENCE_S = 0.0025

#: Seconds between two kernel samples of the timed phase.
INTERVAL = 0.05

#: Samples this many seconds before an op starts or after it ends count
#: toward its speed too, so that a short op has some.
WINDOW = 0.1

#: Fewest samples an op's speed is taken from.
MIN_SAMPLES = 3

_KET = np.array([1.0, 1.0j]) / np.sqrt(2.0)


def kernel() -> str:
    """A fixed piece of work resembling one short stretch of the program."""
    v = np.full(16, 0.25, dtype=complex)
    rows = []
    for k in range(100):
        t = np.moveaxis(v.reshape(2, 2, 2, 2), k % 4, 0)
        amp = np.tensordot(_KET.conj(), t, axes=([0], [0])).reshape(-1)
        p = float((np.abs(amp) ** 2).sum())
        v = np.concatenate([amp, amp[::-1]]) / np.sqrt(2.0 * p)
        rows.append({"round_id": k, "p": float(f"{p:.12g}"), "label": "x+" if p > 0.5 else "y-"})
    return json.dumps(rows)


def sample(runs: int) -> list[float]:
    """Wall times (s) of ``runs`` kernel runs.

    The collector is off while the kernel runs, so the objects the program
    keeps alive cannot slow the kernel through collections; the kernel
    makes no reference cycles, so it frees all it allocates without one.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


class Sampler:
    """Kernel samples taken every ``INTERVAL`` seconds of the timed phase.

    Use as a context manager around the timed phase: a ``SIGALRM`` handler
    runs the kernel between two bytecodes of whatever the process is doing,
    long ops included, and notes when it started and how long it took.
    Times are ``time.perf_counter`` readings.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        #: Handler time summed over the samples before each sample.
        self.paused_before = [0.0]
        self._busy = False
        self._previous = None

    def _take(self, signum=None, frame=None) -> None:
        if self._busy:  # a late tick while a slow sample still runs
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel_s += sample(1)
        self.starts.append(start)
        self.paused_before.append(self.paused_before[-1] + time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._take)
        self._take()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def paused(self, t0, t1) -> np.ndarray:
        """Time (s) the samples took between ``t0`` and ``t1`` (arrays)."""
        starts, before = np.asarray(self.starts), np.asarray(self.paused_before)
        return before[np.searchsorted(starts, t1)] - before[np.searchsorted(starts, t0)]

    def factors(self, t0, t1) -> list[float]:
        """Speed factor of each interval [t0, t1]: ``REFERENCE_S`` over the
        median kernel time of the samples within ``WINDOW`` of it."""
        lo = np.searchsorted(self.starts, np.asarray(t0) - WINDOW)
        hi = np.searchsorted(self.starts, np.asarray(t1) + WINDOW)
        n = len(self.starts)
        out = []
        for a, b in zip(lo.tolist(), hi.tolist()):
            b = min(n, max(b, a + MIN_SAMPLES))
            a = max(0, min(a, b - MIN_SAMPLES))
            out.append(REFERENCE_S / statistics.median(self.kernel_s[a:b]))
        return out
