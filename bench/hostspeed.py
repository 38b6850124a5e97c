"""Host speed, sampled while a worker measures its rounds.

The benchmark runs on a few vCPUs of a shared host.  The same task on the
same input runs up to 1.5 times slower when the host is busy, and busy
spells last from under a second to minutes, so a run of 30 s does not
average them out.  A timer signal every ``INTERVAL_S`` runs a fixed
reference kernel and records how long it took.  The kernel does the kind
of work the workload does (Python dicts, sets and tuples like the relation
search's; numpy gathers and FFTs as well for the extremal solver), so it
slows down with the workload.  The CLI workload uses the Python kernel,
which runs in the waiting worker, not in the calls.

``in_kernels`` expresses a wall time in units of the kernel time sampled
during it: how many kernel runs would have fitted in it at the speed the
host had at that moment.  It falls when the program gets faster and stays
put when the host does.  The kernel is the benchmark's own code, so no
change to grouplim moves it.  It runs inside the measured region and costs
1-3% of it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05

_TABLE = {i: 0.5 * i for i in range(64)}
_DATA = np.random.default_rng(0).standard_normal(1 << 15)
_INDEX = np.random.default_rng(1).integers(0, 1 << 15, 1 << 14)


def python_kernel():
    acc, seen, stack = 0.0, set(), []
    for i in range(1000):
        k = (i * 7) % 64
        t = (k, i & 3)
        if t not in seen:
            seen.add(t)
        stack.append(t)
        acc += abs(_TABLE[k] - 0.25)
        if len(stack) > 16:
            stack.pop()
    return acc


def numpy_kernel():
    for _ in range(4):
        y = _DATA[_INDEX]
        y *= 1.0001
        np.fft.rfft(y[:4096])


def mixed_kernel():
    python_kernel()
    numpy_kernel()


KERNELS = {"cauchy": python_kernel, "extremal": mixed_kernel, "cli": python_kernel}


class HostSpeed:
    """Context manager that samples the kernel every INTERVAL_S of wall time."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._tick(None, None)  # so that every run has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def in_kernels(self, wall: float, start: int, stop: int) -> float:
        """``wall`` in units of the kernel time sampled during it: the mean of
        wall / sample over the samples ``start:stop`` (over all samples of
        the run when none fell inside)."""
        during = self.samples[start:stop] or self.samples
        return wall * statistics.fmean(1.0 / k for k in during)

    def summary(self) -> dict:
        return {"samples": len(self.samples), "interval_s": INTERVAL_S,
                "fastest_ms": 1000 * min(self.samples),
                "median_ms": 1000 * statistics.median(self.samples)}
