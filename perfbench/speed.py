"""Host-speed calibration for the benchmark's timings.

On a host whose cores are shared, identical work runs up to about 1.5x
slower for seconds to minutes at a time, and the process's CPU time slows
with it, so neither wall time nor CPU time is steady from run to run.  A
fixed kernel (pure-Python arithmetic, small dict and tuple building and
small numpy ufuncs; about 0.4 ms) is run twice from a SIGPROF handler every
``INTERVAL_S`` of process CPU time and its second run timed, so the samples
fall inside the work being timed and see the same host speed.  Each stretch
of the program's time between two samples is scaled to the reference speed
by the kernel time sampled at its end::

    seconds_at_reference = sum(stretch * REF_KERNEL_S / kernel_time)

The handler's own time is left out of both the stretches and the measured
wall time.  On a host where the kernel takes ``REF_KERNEL_S`` the scaled time
equals the measured one.  The kernel is part of the benchmark, not of
sosreg, so a change to the program does not change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 4.0e-4  # the kernel's time on the 2-vCPU reference VM, rounded
INTERVAL_S = 0.04  # process CPU time between samples

_V = np.arange(32.0)


def kernel() -> float:
    s = 0
    for i in range(3000):
        s += i * i
    d = {}
    for i in range(600):
        d[(i, i + 1)] = [i, i]
    w = _V
    for _ in range(80):
        w = np.sqrt(w * 1.0001 + 1.0)
    return s + len(d) + float(w[0])


def _timed_kernel() -> float:
    # the first call refills the caches the program's work evicted, so the
    # timed second call sees the host's speed, not the program's memory use
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Samples the kernel on SIGPROF while started.  A phase runs from one
    ``take`` to the next; ``take`` returns the phase's kernel samples, the
    handler's time in it and the phase's time at the reference speed."""

    def __init__(self):
        self.last_kernel_s = _timed_kernel()
        self.samples, self.overhead, self.scaled, self.mark = [], 0.0, 0.0, time.perf_counter()

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        k = _timed_kernel()
        self.scaled += (t0 - self.mark) * REF_KERNEL_S / k
        self.samples.append(k)
        self.last_kernel_s = k
        self.mark = time.perf_counter()
        self.overhead += self.mark - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def take(self) -> tuple:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            now = time.perf_counter()
            scaled = self.scaled + (now - self.mark) * REF_KERNEL_S / self.last_kernel_s
            out = (self.samples, self.overhead, scaled)
            self.samples, self.overhead, self.scaled, self.mark = [], 0.0, 0.0, now
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
        return out

    def kernel_s(self, samples: list) -> float:
        """Median kernel time of a phase; the latest sample if it has none."""
        return statistics.median(samples) if samples else self.last_kernel_s
