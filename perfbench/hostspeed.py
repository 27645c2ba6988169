"""Host speed, sampled on the benchmark's own thread while it measures.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes: the program's CPU time rises with
its wall time, so the drift is the host's cores running slower, not time
spent waiting for them. A fixed calibration loop slows down with the
program. The sampler runs that loop every ``INTERVAL_S`` of process CPU
time from a ``SIGPROF`` handler, so its samples interleave with the program
on the same thread and the same core.

A span's *speed factor* is the mean time of the samples taken within it
divided by ``REFERENCE_S``, the loop's time at the reference speed. The
span's time at the reference speed is its wall time, less the time spent in
the sampler, divided by that factor. It is in seconds, and equals the wall
time on a host where the loop takes ``REFERENCE_S``. The loop depends on
numpy and Python only, never on demandeval, so a change to the program
moves the span's time and not its factor.

The loop mixes the kinds of work the program does: numpy calls on short
arrays, interpreter arithmetic, dict updates and a sort. A loop of pure
interpreter work tracked the study runs less well (about 8% against 2%).
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from statistics import fmean

import numpy as np

#: Process CPU time between two samples; each sample costs about 6% of it.
INTERVAL_S = 0.1
#: Time of one calibration loop at the reference speed.
REFERENCE_S = 0.005
#: Fewest samples behind a speed factor; a short span is topped up after it ends.
MIN_SAMPLES = 8

_VALUES = np.random.default_rng(20200422).normal(10.0, 3.0, size=96)


def calibrate() -> float:
    """The fixed calibration loop; returns a value so no work is skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    x = _VALUES
    for _ in range(8):
        for _ in range(30):
            acc += float(np.abs(x - np.roll(x, 1)).mean())
            acc += float(np.cumsum(x)[-1])
        for i in range(400):
            table[i % 53] = table.get(i % 53, 0.0) + i * 0.5
            acc += (i * 1.000001) % 3.0
        acc += sorted(x.tolist())[48]
    return acc


@dataclass(frozen=True)
class Mark:
    """The sampler's state at the start of a span."""

    time: float
    count: int
    spent: float


@dataclass(frozen=True)
class Span:
    """A span's wall time, its time in the sampler and its speed factor."""

    wall_s: float
    net_s: float
    factor: float
    samples: int

    @property
    def reference_s(self) -> float:
        """The span's time at the reference speed."""
        return self.net_s / self.factor


class Sampler:
    """Calibration samples taken from ``SIGPROF`` while the sampler is on."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._warm = False
        self._previous = None

    def _sample(self) -> None:
        if self._busy:  # a signal that lands in a sample is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            calibrate()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def _handler(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        """Sample from now on; the first start runs the loop once to warm it.

        The warm-up counts as time spent in the sampler, not as a sample.
        """
        if not self._warm:
            start = time.perf_counter()
            calibrate()
            self.spent += time.perf_counter() - start
            self._warm = True
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), len(self.samples), self.spent)

    def span(self, mark: Mark, wall_s: float | None = None) -> Span:
        """The span from ``mark`` to now.

        ``wall_s`` replaces the time since the mark, for a span that began
        before the mark (such as the process's set-up). Samples are added
        after the span ends until it has ``MIN_SAMPLES``.
        """
        now = time.perf_counter()
        spent = self.spent - mark.spent
        wall = now - mark.time if wall_s is None else wall_s
        while len(self.samples) - mark.count < MIN_SAMPLES:
            self._sample()
        samples = self.samples[mark.count:]
        return Span(wall, wall - spent, fmean(samples) / REFERENCE_S, len(samples))
