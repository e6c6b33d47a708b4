"""Reference-speed time: wall time rescaled by the host's momentary speed.

A shared 2-CPU host (Python 3.11) ran the same single-threaded code at
speeds up to 1.6-2x apart, flipping between them within seconds: the
reference loop below read 42-46 us in one stretch and 60-70 us in the next,
and thread CPU time slowed with the wall.  A slowdown that lasts a whole
run cannot be told from a slower program by the run's own timings, so
every timed pass and every set-up probe samples the host's speed beside its
work:

* a ``SIGALRM`` timer runs :func:`reference_loop`, a fixed dict-and-int
  loop, every ``INTERVAL_S`` of wall time, in the benchmark's own (only)
  thread.  Of the loops tried, its slowdowns tracked the program's best:
  normalizing 16 ``svc-open`` passes by a method-call loop left 1.6x its
  pass-to-pass spread, by a random walk over a 300k-element list 8-10x;
* the speed at each sample is ``REF_PROBE_S`` (the loop's time on a quiet
  host) over the median loop time of the ``2 * WINDOW + 1`` samples
  around it;
* :meth:`HostSpeed.at` maps a ``time.perf_counter()`` reading to
  reference-speed seconds since the pass began: each stretch of wall
  between samples scaled by the speed there, the loops' own time left out.

A duration in reference-speed seconds is the wall the same work takes
while the host runs at its quiet speed.  The reference loop is benchmark
code, identical on every commit, so a faster program reads faster and a
slower host does not.  The loop allocates no container, so it never moves
a garbage collection, and the program never sees the signal.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, List, Optional

_clock = time.perf_counter

#: Wall seconds between speed samples, samples each side of the median
#: window (so a window spans ~0.05 s), and the reference loop's duration on
#: a quiet host, which fixes the scale of every reference-speed figure.
INTERVAL_S = 0.01
WINDOW = 2
REF_PROBE_S = 44e-6


def reference_loop(table: dict) -> None:
    for i in range(400):
        table[i & 63] = (table[i & 31] + i) & 1023


class HostSpeed:
    """Context manager: samples the host's speed while the block runs,
    then maps wall readings taken inside it to reference-speed seconds."""

    def __init__(self) -> None:
        self.samples: List[tuple] = []  # (start, end) of each reference loop
        self.origin = 0.0
        self._table = {i: 0 for i in range(64)}

    def _sample(self, signum, frame) -> None:
        start = _clock()
        reference_loop(self._table)
        self.samples.append((start, _clock()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.origin = _clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc[0] is None:
            self._build()

    def _build(self) -> None:
        if not self.samples:
            raise RuntimeError("no host-speed sample: the block ran under 10 ms")
        durations = [end - start for start, end in self.samples]
        self._speeds = [
            REF_PROBE_S
            / statistics.median(durations[max(0, i - WINDOW) : i + WINDOW + 1])
            for i in range(len(durations))
        ]
        self._starts = [start for start, _end in self.samples]
        self._ends = [end for _start, end in self.samples]
        # Reference-speed time at the start of each sample.
        self._at_start = [(self._starts[0] - self.origin) * self._speeds[0]]
        for i in range(len(self.samples) - 1):
            gap = self._starts[i + 1] - self._ends[i]
            self._at_start.append(self._at_start[-1] + gap * self._speeds[i])

    def at(self, t: float) -> float:
        """Reference-speed seconds from the block's start to wall ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return (t - self.origin) * self._speeds[0]
        return self._at_start[i] + max(0.0, t - self._ends[i]) * self._speeds[i]

    def mean_speed(self) -> float:
        return statistics.mean(self._speeds)


def converter(host: Optional[HostSpeed]) -> Callable[[float], float]:
    """Wall reading -> the pass's time scale (identity without ``host``)."""
    return host.at if host is not None else (lambda t: t)
