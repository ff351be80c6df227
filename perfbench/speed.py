"""The machine's speed, sampled during an operation with a fixed calibration loop.

On a shared machine the same operation can take twice as long a minute later,
because other work slows the core it runs on.  A `Sampler` measures that
slowdown while the operation runs: a timer signal interrupts the main thread
every PERIOD_S seconds and runs `calibrate`, a fixed amount of pure-Python
integer and list work of the kind qgraph's Laurent arithmetic does.  The
ratio of the calibration's mean time to REF_S says how much slower than the
reference the machine ran in an interval, and `factors` gives what turns a
measured duration into seconds at the reference speed, the time the interval would
have taken on the quiet machine.  The caller first takes out of an interval
the calibration time spent inside it.

`calibrate` allocates no container objects, so it never triggers the
garbage collector, and nothing it touches is shared with qgraph.
"""

from __future__ import annotations

import signal
import time
from typing import NamedTuple

PERIOD_S = 0.025
# about the best time of calibrate seen on a 2-vCPU Intel Xeon VM, Python 3.11;
# it sets only the scale of the normalized times
REF_S = 0.0006

_N = 64
_A = tuple((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 62) - 1) for i in range(_N))
_MASK = (1 << 96) - 1


def calibrate(acc: list) -> None:
    """Multiply-accumulate _A by itself into `acc`, a list of 2 * _N ints."""
    a = _A
    for i in range(_N):
        x = a[i]
        for j in range(_N):
            acc[i + j] = (acc[i + j] + x * a[j]) & _MASK


class Totals(NamedTuple):
    samples: int
    wall_s: float  # wall time of the calibrations
    cpu_s: float  # CPU time of the calibrations, on the main thread


class Sampler:
    """Runs calibrate() on demand and, between start() and stop(), on a timer."""

    def __init__(self):
        self.samples, self.wall_s, self.cpu_s = 0, 0.0, 0.0
        self._acc = [0] * (2 * _N)
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a sample taken on demand
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.thread_time()
        calibrate(self._acc)
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.thread_time() - c0
        self.samples += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def totals(self) -> Totals:
        return Totals(self.samples, self.wall_s, self.cpu_s)


def diff(later: Totals, earlier: Totals) -> Totals:
    return Totals(*(a - b for a, b in zip(later, earlier)))


def factors(around: Totals) -> tuple:
    """(wall, cpu) factors to seconds at the reference speed, from the calibrations
    that sample the machine over an interval: those inside it and at its ends."""
    return REF_S * around.samples / around.wall_s, REF_S * around.samples / around.cpu_s
