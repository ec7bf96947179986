"""Machine-speed calibration for the benchmark's timings.

The shared machine this benchmark was defined on runs at 1.0x to 1.75x of its
best speed in phases of 5 to 10 s, which moved raw 20 s medians by 20%.  A
fixed pure-Python kernel, independent of quatcurves, is therefore timed next
to the measured work, and each measured time is scaled by the kernel's
reference time over its observed mean time.  Calibrated times are seconds at
the speed where the kernel takes REFERENCE_S, its best time on that machine
(2 cores, Python 3.11).  This module imports only `signal` and `time`, so a
fresh interpreter can use it without loading anything the set-up time
measures.
"""

import signal
import time

REFERENCE_S = 5.2e-4


def kernel_seconds() -> float:
    """Seconds taken by a fixed loop of tuple, dict and integer work."""
    t0 = time.perf_counter()
    acc, table = 1, {}
    for i in range(3000):
        key = (i % 17, i % 5)
        acc = (acc * 31 + key[0] * key[1]) % 1000003
        table[key] = acc
    return time.perf_counter() - t0


def calibrated(seconds: float, kernel_times) -> float:
    """`seconds` measured while the kernel took `kernel_times`, at reference speed."""
    return seconds * REFERENCE_S * len(kernel_times) / sum(kernel_times)


class Sampler:
    """Runs the kernel every `interval` seconds of wall time (never if 0), from
    a SIGALRM handler, while a long call the benchmark cannot split is timed.
    `handler_s` is the time spent in the handler, to subtract from the call."""

    def __init__(self, interval: float):
        self.interval = interval
        self.kernel = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel.append(kernel_seconds())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
