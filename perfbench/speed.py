"""Machine speed, sampled while a timed span runs.

The benchmark shares a few cores of a busy host whose speed drifts by a
third and more over seconds to minutes, in wall time and in CPU time alike.
Two runs of the same code can then differ more than any bound worth having.
So while a span is timed, an interval timer interrupts the main thread every
``INTERVAL_S`` and times a small fixed pure-Python kernel (no thread is
started; the handler runs between the program's own bytecodes).  The span's
wall time divided by the kernel's mean slow-down against its reference time
is the span's time at reference speed: what the user would wait on an
unloaded machine of the reference kind.  The kernel is part of the
benchmark, so no change to the package can move it.

Pure Python on purpose: importing this module imports nothing the package
would import, so it does not shift the measured import time.
"""
from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# The kernel's typical time on the reference machine (2-vCPU x86-64 VM,
# CPython 3.11, whose speed drifts by a factor of 1.7).  Only ratios to it
# are reported.
REFERENCE_S = 5.0e-4
# Share of the samples dropped at each end before averaging: a sample that
# was descheduled mid-kernel reads tens of times slower, which says more
# about where the timer fell than about the machine's speed.
TRIM = 0.1


def kernel() -> float:
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(3000):
        total += (i * 7) % 13
        table[i & 255] = total
    return time.perf_counter() - started


class Speed:
    """``with Speed() as speed:`` samples the kernel through the span;
    ``speed.factor`` is the mean slow-down against the reference (1.0 at
    reference speed, 1.3 when the machine runs 30 % slow)."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "Speed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def factor(self) -> float:
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept) / REFERENCE_S
