"""The reference operation: the benchmark's gauge of the host's speed.

On a small shared machine the host runs this process 1.4 to 2.3 times
slower for minutes at a time while its neighbours are busy, and every
timing of a run moves with it: one ``score`` candidate took from 52 to
80 ms within half an hour on a 2-vCPU virtual machine. So while a run
measures, it also times this fixed operation every ``SAMPLE_EVERY_S``
seconds, from a timer signal, whatever the workload is doing, and reports
the workload's time in multiples of the operation's mean time (unit
``ref``). In two sets of ten runs of each workload on that machine, the
distance between the quartiles of that ratio was 2-7% of its median,
against 9-30% for the plain time.

The operation does the two kinds of work the package spends its time on:
dictionary and tuple work in the interpreter, as ``metrics`` does, and
small matrix-vector products, as ``nnet`` does. It takes about 0.5-0.8 ms,
about 1% of a run. It belongs to the benchmark, so both commits of a
comparison run the same one.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.05


class Reference:
    def __init__(self):
        self._matrix = np.random.default_rng(0).normal(size=(64, 64)) / 8
        self._vector = np.ones(64)
        self._busy = False
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in reference operations

    def operation(self):
        counts = {}
        for i in range(1500):
            key = (i % 13, i % 7)
            counts[key] = counts.get(key, 0.0) + i * 0.5
        x = self._vector
        for _ in range(30):
            x = np.tanh(self._matrix @ x)
        return counts, x

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while one runs is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.operation()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in reference
        operations, so that a workload's timings leave them out."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        """Time the operation every SAMPLE_EVERY_S seconds inside the block.
        Python runs the handler between bytecodes of the main thread, so a
        tick that falls inside a long native call waits for its end."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self) -> float:
        """Mean seconds of one reference operation."""
        return math.fsum(self.samples) / len(self.samples)


class Pacer:
    """The clock a workload times its operations with, and the run's
    deadline. ``Pacer()`` is plain ``time.perf_counter`` with no deadline."""

    def __init__(self, clock=time.perf_counter, deadline: float | None = None):
        self.clock = clock
        self.deadline = deadline

    def due(self) -> bool:
        return self.deadline is not None and self.clock() >= self.deadline
