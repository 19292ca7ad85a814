"""Machine-speed reference for timings taken on a shared host.

On a shared host the same code runs up to twice as slowly for seconds or
minutes at a time while neighbours load the CPU, so wall times of separate
runs disagree by more than any change worth detecting. While a timed loop
runs, a timer signal makes the benchmark time a fixed reference kernel, its
own code and never the package's, every ``every_s`` seconds. Each measured
interval loses the kernel runs that fell inside it and is then scaled by
``REF_NS`` over the mean kernel time sampled around it: a scaled time is the
time the interval would have taken while the machine ran the kernel in
exactly ``REF_NS``, and keeps the unit of the raw time. The mean, not the
median, because an interval's duration sums its slow and fast moments.
"""

from __future__ import annotations

import signal
import time

import numpy as np

clock = time.perf_counter_ns

# about the kernel's time on the 2-core Xeon host at 2.0 GHz (Python 3.11) the
# benchmark was tuned on, when neighbours load the CPU
REF_NS = 1_000_000
WINDOW_NS = 120_000_000   # kernel samples this close to an interval scale it


def kernel() -> int:
    """Fixed mix of interpreter and small-array numpy work, like the workloads'."""
    a = np.zeros(32)
    s = 0
    for i in range(120):
        a += 1.0
        if np.any(a < 0.0):
            s += 1
        s += i * i % 7
    return s


def reference_ns() -> int:
    t0 = clock()
    kernel()
    return clock() - t0


class Speedometer:
    """Reference-kernel samples taken from a SIGALRM timer inside a ``with`` block."""

    def __init__(self, every_s: float = 0.04):
        self.every_s = every_s
        self.starts = []
        self.times = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        kernel()
        self.starts.append(t0)
        self.times.append(clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, starts_ns, ends_ns):
        """Raw and reference-speed durations of the intervals [start, end).

        The raw duration excludes the kernel runs that started inside the
        interval. The scaled one multiplies it by REF_NS over the mean
        kernel time of the samples within WINDOW_NS of the interval.
        """
        s = np.asarray(starts_ns, dtype=np.int64)
        e = np.asarray(ends_ns, dtype=np.int64)
        ks = np.asarray(self.starts, dtype=np.int64)
        kt = np.asarray(self.times, dtype=float)
        if ks.size == 0:
            ks, kt = np.array([0], dtype=np.int64), np.array([reference_ns()], dtype=float)
        inside = np.concatenate([[0.0], np.cumsum(kt)])
        raw = (e - s) - (inside[np.searchsorted(ks, e)] - inside[np.searchsorted(ks, s)])
        lo = np.searchsorted(ks, s - WINDOW_NS)
        hi = np.maximum(np.searchsorted(ks, e + WINDOW_NS), np.minimum(lo + 1, ks.size))
        lo = np.minimum(lo, hi - 1)
        windows, which = np.unique(np.stack([lo, hi]), axis=1, return_inverse=True)
        means = np.array([kt[a:b].mean() for a, b in windows.T])
        return raw, raw * (REF_NS / means[which.ravel()])
