"""Host-speed sampling, so that timings can be given at one reference speed.

The machines this benchmark runs on are shared, and their speed drifts: the
same deterministic loop can take 1.7x as long from one second to the next,
and slow phases outlast a run.  A `SpeedSampler` runs a fixed stdlib-only
calibration loop (exact `Fraction` arithmetic and dict updates, the kind of
work qfold does, but none of qfold's code) on a background thread every
`PERIOD_S` seconds, and times it with that thread's CPU clock, which does
not count the time the thread waits for the GIL.  Each virtual CPU of such a
machine is slowed on its own, so `pin_to_one_cpu()` first puts the whole
process (and every thread and child process it starts) on one CPU: the
sampler then sees the slow phases of the CPU the program runs on.  One sample's speed is
`REFERENCE_S` over the loop's time: 1.0 on the reference machine, below 1
in a slow phase.

A span of raw time `t` during which the mean sampled speed was `v` did the
work the reference machine does in `t * v` seconds; `normalise` gives that.
Since the loop is not qfold's code, a change to qfold moves the normalised
times by as much as it moves the raw ones.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, sleep, thread_time

PERIOD_S = 0.05
# typical time of one calibration loop, timed by the sampler during a
# benchmark run, on the reference machine (a shared host giving 2 vCPUs,
# CPython 3.11); its fast phases read about 0.0018
REFERENCE_S = 0.0025
# a span shorter than this is normalised by the samples of this much time
# around its middle
MIN_WINDOW_S = 0.5


def pin_to_one_cpu() -> int:
    """Restrict this process to the lowest CPU it may run on; return it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_loop() -> Fraction:
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        table[i % 37] = table.get(i % 37, 0) + i
    return acc


def sample_speed() -> float:
    t0 = thread_time()
    calibration_loop()
    return REFERENCE_S / (thread_time() - t0)


class SpeedSampler:
    """Samples the host's speed on a daemon thread until `stop()`."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _loop(self) -> None:
        while not self._stop.is_set():
            mid = perf_counter()
            speed = sample_speed()
            self.times.append(mid)
            self.speeds.append(speed)
            self._stop.wait(self.period_s)

    def mean_speed(self, t0: float, t1: float) -> float:
        """Mean sampled speed over [t0, t1], widened to MIN_WINDOW_S."""
        if t1 - t0 < MIN_WINDOW_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - MIN_WINDOW_S / 2, mid + MIN_WINDOW_S / 2
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        if lo == hi:            # no sample inside: the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = self.speeds[lo:hi]
        return sum(window) / len(window)

    def normalise(self, t0: float, t1: float) -> float:
        """Raw time t1 - t0 given at the reference speed."""
        return (t1 - t0) * self.mean_speed(t0, t1)

