"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of one core changes by tens of percent within
seconds, so raw wall times of the same work spread far wider than any useful
regression bound. The benchmark therefore runs this kernel between small
units of measured work (one optimizer step, a few dozen questions) and
scales each unit's wall time by

    REFERENCE_S / (mean kernel time just before and just after the unit)

A set-up stage runs for up to seconds in one call, so ``Speed.timed`` also
runs the kernel every ``sample_s`` of wall time inside the call and scales each
slice between two kernel runs on its own.

The kernel mixes small numpy matrix products, elementwise operations,
reductions and Python dict and float work, the same mix the program spends
its time on, so the scaled time follows the program's own cost and not the
machine's momentary speed. The kernel uses no code of the program: a change
to the program cannot change it. Scaled times read as times on a machine
where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
_ITERS = 450  # about REFERENCE_S of work on a 2.1 GHz x86-64 core
SAMPLE_S = 0.1  # default wall time between kernel runs inside Speed.timed


class Speed:
    """Runs the kernel on demand and keeps every kernel time it measured."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((12, 32))
        self._w = rng.standard_normal((32, 32)) * 0.1
        self.kernel_s: list[float] = []
        self.sample_s = SAMPLE_S  # 0 turns the kernel runs inside Speed.timed off
        self._last = self.measure()

    def _kernel(self) -> float:
        a, w = self._x, self._w
        acc: dict[int, float] = {}
        for i in range(_ITERS):
            b = np.maximum(a @ w + 0.5, 0.0)
            a = b / (b.sum(axis=1, keepdims=True) + 1.0)
            acc[i % 64] = acc.get(i % 64, 0.0) + float(a[0, 0])
        return acc[0]

    def measure(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        self._last = dt
        return dt

    def factor(self) -> float:
        """Run the kernel; returns the factor that scales the wall time of the
        work done since the previous kernel run to reference speed."""
        before = self._last
        return REFERENCE_S / (0.5 * (before + self.measure()))

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` and run the kernel every ``sample_s`` of wall time while
        it runs (on SIGALRM, so only from the main thread). Each slice of ``fn``
        between two kernel runs is scaled by their mean time. Returns the
        result, the wall time and the time at reference speed, both without
        the kernel's own time."""
        ks = [self.measure()]
        walls = []

        def tick(signum, frame):
            nonlocal last
            walls.append(time.perf_counter() - last)
            ks.append(self.measure())
            last = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, tick)
        last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            walls.append(time.perf_counter() - last)
        ks.append(self.measure())
        scaled = sum(w * REFERENCE_S / (0.5 * (ks[i] + ks[i + 1])) for i, w in enumerate(walls))
        return result, sum(walls), scaled

    def median_factor(self) -> float:
        """REFERENCE_S over the run's median kernel time."""
        return REFERENCE_S / statistics.median(self.kernel_s) if self.kernel_s else 1.0

    @property
    def total_s(self) -> float:
        return sum(self.kernel_s)
