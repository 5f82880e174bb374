"""Calibrated time: CPU time expressed at a fixed machine speed.

On a shared host the same code runs up to ~2x slower at times, in spells
from milliseconds to minutes, because of what other tenants do.  That is
not steal time, so CPU time shows it as much as wall time does.  So while a
game is solved, ``Sampler`` runs a small fixed kernel every ``INTERVAL_S``
of CPU time (on ``SIGPROF``) and divides each stretch of the program's CPU
time by the kernel's time at its end.  A slow spell of the machine slows
both and cancels out; a slower program still shows.  The kernel imports
nothing from the package, so no change to the program can change it.

The kernel's two halves copy the two regimes of the workloads: text
parsing and list walks in pure Python (``pipeline-100k``), and small numpy
calls on 10k-element ``uint8`` arrays (the solver core on ``core-10k``).

All times here are the calling thread's CPU time: while a ``SIGPROF``
timer is armed, Linux advances the process CPU clock only in timer ticks.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# About the kernel's time in a fast spell of a 2-vCPU VM (Python 3.11, numpy
# 2.4); calibrated times are seconds of a machine that runs it in this time.
REFERENCE_S = 0.002
INTERVAL_S = 0.05  # CPU seconds between kernel runs; the kernel adds ~5%

_N = 600
_LINES = [f"{v} {v % 7} {v & 1} {(v * 31) % _N},{(v * 17 + 1) % _N};" for v in range(_N)]
_FLAGS = ((np.arange(10_000, dtype=np.int64) * 2654435761) % 251).astype(np.uint8)


def _kernel() -> int:
    priority, successors = [], []
    for line in _LINES:
        _, p, _, succ = line[:-1].split(" ")
        priority.append(int(p))
        successors.append([int(s) for s in succ.split(",")])
    total = 0
    seen = [False] * _N
    stack = [0]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        total += priority[v]
        stack.extend(u for u in successors[v] if not seen[u])
    for i in range(10):
        level = (_FLAGS >> (i % 7)) & 1
        zeros = np.flatnonzero(level == 0)
        bounds = np.cumsum(level, dtype=np.int64)
        hits = np.searchsorted(zeros, bounds[::97], side="left")
        total += int(np.count_nonzero(np.where(level == 1, _FLAGS, 0))) + int(hits[-1])
    return total


def kernel_s() -> float:
    """CPU seconds of one kernel run, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _kernel()
        return time.thread_time() - start
    finally:
        if was_enabled:
            gc.enable()


def burst_s(runs: int = 20) -> float:
    """Median of ``runs`` kernel runs: the machine's speed next to work that cannot be sampled."""
    return statistics.median(kernel_s() for _ in range(runs))


class Sampler:
    """Context manager that measures the CPU time of the code inside it.

    ``program_s`` is that CPU time without the kernel runs, ``calibrated_s``
    the same work in seconds of the reference machine, and ``kernel_times``
    the kernel's run times.  Use it only from the main thread.
    """

    def __init__(self):
        self.kernel_times: list[float] = []
        self.program_s = 0.0
        self.calibrated_s = 0.0
        self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._mark = time.thread_time()
        return self

    def _stretch(self, until: float) -> None:
        kernel = kernel_s()
        self.kernel_times.append(kernel)
        self.program_s += until - self._mark
        self.calibrated_s += (until - self._mark) * REFERENCE_S / kernel

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a kernel run
            return
        self._busy = True
        try:
            self._stretch(time.thread_time())
            self._mark = time.thread_time()
        finally:
            self._busy = False

    def __exit__(self, *exc) -> None:
        end = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._stretch(end)
