"""The host's speed during a run, sampled with a fixed pure-Python kernel.

The machine this benchmark was written on is a share of a virtual host whose
speed drifts by up to about 25 % either way within seconds, with nothing
else running in the machine.  Two unrelated pure-Python loops timed side by
side drift together: their ratio holds within about 5 % either way while
each of them moves by up to 40 %.  So the benchmark times a fixed kernel
alongside the program and reports the program's times scaled to the speed
at which that kernel runs in ``REFERENCE_KERNEL_S``: host-normalised
seconds.  The raw wall times are printed beside them.

``Sampler`` runs the kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
seconds of wall time, so long operations are sampled while they run; the
handler's own time is subtracted from the operation it interrupted.  No
thread or process is started.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

perf_counter = time.perf_counter

# the kernel's median time on the reference machine (see README.md); it
# only sets the scale of the normalised figures
REFERENCE_KERNEL_S = 0.00025
# seconds of wall time between samples
INTERVAL_S = 0.01
# samples on each side of a sample in the rolling median
SMOOTH = 5


def kernel() -> int:
    """About 0.25 ms of the kind of work cudlab does: small tuples and lists,
    dict lookups, small-int arithmetic, calls, a sort and a few fractions."""
    word = tuple(range(24, 0, -1))
    seen: dict[int, int] = {}
    total = 0
    for _ in range(26):
        inverse = [0] * 25
        for i, v in enumerate(word):
            inverse[v] = i
        runs = [b - a for a, b in zip(word, word[1:]) if b < a]
        seen[len(runs)] = seen.get(len(runs), 0) + 1
        total += sum(inverse) + len(sorted(word, key=lambda x: -x))
        word = word[1:] + word[:1]
    q = Fraction(0)
    for k in range(1, 13):
        q += Fraction(k, k + 1)
    return total + q.numerator + len(seen)


def kernel_seconds() -> float:
    """One timing of the kernel, run once before untimed so that its code and
    data are in cache, and with the collector off so that the program's heap
    does not bear on it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def slowness(repeats: int) -> float:
    """Kernel time over the reference, as a median of ``repeats`` timings
    made now: 1.0 at the reference speed, 1.2 when the host is 20 % slower."""
    return statistics.median(kernel_seconds() for _ in range(repeats)) / REFERENCE_KERNEL_S


class Sampler:
    """Times the kernel from a timer signal while started."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample started
        self.took: list[float] = []  # and how long the kernel ran
        self.spent = 0.0  # wall time spent in the handler, all told
        self.busy = False

    def _tick(self, signum, frame) -> None:
        if self.busy:  # a signal that lands while the kernel runs
            return
        self.busy = True
        t0 = perf_counter()
        took = kernel_seconds()
        self.at.append(t0)
        self.took.append(took)
        self.spent += perf_counter() - t0
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowness_curve(self) -> list[float]:
        """Each sample's rolling median over its neighbours, over the
        reference: a single sample may be stretched by a preemption."""
        took = self.took
        return [
            statistics.median(took[max(0, j - SMOOTH) : j + SMOOTH + 1]) / REFERENCE_KERNEL_S
            for j in range(len(took))
        ]

    def scale(self, starts, ends) -> list[float]:
        """The mean slowness over each span of wall time from ``starts[i]``
        to ``ends[i]``: over the samples taken in it, or the nearest
        sample's when it holds none."""
        curve = self.slowness_curve()
        at = self.at
        out = []
        for start, end in zip(starts, ends):
            lo = bisect.bisect_left(at, start)
            hi = bisect.bisect_left(at, end)
            if hi > lo:
                out.append(sum(curve[lo:hi]) / (hi - lo))
            else:
                nearest = min(
                    (j for j in (lo - 1, lo) if 0 <= j < len(curve)),
                    key=lambda j: abs(at[j] - start),
                )
                out.append(curve[nearest])
        return out
