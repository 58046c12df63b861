"""Speed probe: how fast the machine runs while the workload runs.

The benchmark's host is a few cores of a shared machine whose speed swings
by up to 40% over seconds to minutes, with near-zero steal time, so the
process cannot see the slowdown except by timing fixed work. The probe does
exactly that: a real-time interval timer (SIGALRM) interrupts the workload
every ``INTERVAL_S`` and the handler times one run of ``kernel``, a fixed mix
of interpreter work (calls, integer arithmetic, string formatting) and numpy
elementwise work, the two kinds of work chebpush does. Over a pass this gives
hundreds of samples of the machine's speed, weighted by time.

Time measured on the workload is rescaled to the reference speed:
``t * REFERENCE_S / mean(probe samples taken meanwhile)``. ``REFERENCE_S`` is
a fixed constant, the probe's median duration on the machine the bounds were
set on (see NOTES.md), so a rescaled time is in seconds at that machine's
speed. The time spent in the handler is subtracted from the workload's time.
The kernel does not call chebpush, so a change to the package leaves the
kernel's work the same.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = 0.0008

_XS = np.linspace(-1.0, 1.0, 4096)


def _step(value, i):
    return (value * 31 + i) % 1000003


def kernel():
    """One unit of fixed work, about 0.8 ms at the reference speed."""
    value = 1
    for i in range(800):
        value = _step(value, i)
    text = ",".join(f"{t:.6g}" for t in range(0, 400, 3))
    acc = 0.0
    for j in range(8):
        acc += float(np.cos(_XS * (j + 1)).sum())
    return value, len(text), acc


class SpeedProbe:
    """Times ``kernel`` on a SIGALRM timer while started.

    ``samples`` holds the duration of each probe run; ``spent`` the total
    time spent in the handler, to be subtracted from the workload's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        for _ in range(3):  # warm the kernel so that no sample is a cold start
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer, then take one closing sample, so that even an
        interval shorter than ``INTERVAL_S`` has one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)


def scale(samples):
    """Factor that rescales a time measured during ``samples`` to the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)
