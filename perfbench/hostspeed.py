"""Host-speed reference for the benchmark's timings.

The benchmark host is a shared VM.  Its speed drifts between 1.0x and 1.9x
of its best, in phases lasting from seconds to about a minute, and process
CPU time drifts with it.  Medians inside a run cannot remove a phase that
covers the whole run, so every raw time t is reported as

    t * NOMINAL_S / ref

where ref is what a fixed reference loop took around the same work: the
median over a timed round (Bracket; cli_cold, whose requests run for up to
two seconds, also samples it between the round's requests), or the
time-weighted mean over a set-up (Sampler).  The result is the time the work
would have taken with the reference loop at its nominal speed.  A slower
program still reads slower; a slower host moves the program and the
reference alike, so the two cancel.  The host factor is printed next to the
scaled figures.
"""

from __future__ import annotations

import statistics
import time

# About the best time of reference() on the 2-vCPU benchmark host (Python 3.11.7).
# It only sets the scale: runs of the same benchmark compare at any value.
NOMINAL_S = 0.00090

_MASK = (1 << 1024) - 1


def reference() -> float:
    """Seconds for a fixed mix of small-int and 1024-bit int work, the two
    kinds of arithmetic subsumlab spends its time in: the median of three
    runs, so one interrupt does not decide a unit's scale."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        a = 12345678901234567
        for i in range(4_000):
            x += i * i
            a = ((a << 3) | (a >> 5)) & _MASK
        runs.append(time.perf_counter() - t0)
    return sorted(runs)[1]


def scale(raw_s: float, ref_s: float) -> float:
    """A raw time in seconds, scaled to the nominal host speed."""
    return raw_s * NOMINAL_S / ref_s


class Bracket:
    """Reference times around and inside consecutive timed units.

    `mark()` takes a reference inside a unit, between two of its requests.
    `close()` takes one after the unit and returns the median of the unit's
    references, both boundaries included.  The closing reference is also the
    next unit's opening one.
    """

    def __init__(self):
        self.refs = [reference()]
        self.start = 0

    def mark(self) -> None:
        self.refs.append(reference())

    def close(self) -> float:
        self.refs.append(reference())
        ref = statistics.median(self.refs[self.start:])
        self.start = len(self.refs) - 1
        return ref


class Sampler:
    """Reference times taken through a long unit such as a set-up, at most
    every INTERVAL_S seconds, wherever the unit calls `tick()`."""

    INTERVAL_S = 0.5

    def __init__(self):
        reference()  # the first run in a fresh interpreter is not yet specialised
        self.samples = [(time.perf_counter(), reference())]

    def tick(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= self.INTERVAL_S:
            self.samples.append((time.perf_counter(), reference()))

    def ref(self) -> float:
        """The time-weighted reference over the whole unit, so that
        scale(raw, ref()) sums each interval at its own host speed."""
        self.samples.append((time.perf_counter(), reference()))
        pairs = list(zip(self.samples, self.samples[1:]))
        span = self.samples[-1][0] - self.samples[0][0]
        return span / sum((t1 - t0) / ((r0 + r1) / 2) for (t0, r0), (t1, r1) in pairs)
