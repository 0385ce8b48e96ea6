"""Host-load calibration for timings taken on a shared machine.

Co-tenants of a shared VM slow every instruction stream by up to 2x, in
bursts from under a second to minutes long. ``Calibrator`` times a fixed
reference kernel every ``SAMPLE_INTERVAL`` seconds from a SIGALRM handler,
so that samples also fall inside long calls into the package, and keeps a
clock that excludes the time spent sampling. Dividing the kernel's
uncontended time by the mean of the samples taken during a piece of work
gives the factor that converts the work's host time into uncontended host
time.

A sample must not depend on what the program does, or a slowdown of the
program would be divided out of its own figures. So each sample runs with
the garbage collector off (the kernel frees everything it allocates by
reference counting, and the size of the program's heap does not change its
time), and starts with an untimed call that brings the kernel's code and
data back into cache after the program evicted them (without it, the first
call after a package call ran about 9% slower than the next ones).
"""

import gc
import math
import signal
import statistics
import time

import numpy as np

# Host time of one reference_kernel() call on an uncontended core of the
# machine the bounds were set on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
REFERENCE_S = 5.25e-4

# Seconds between samples taken by the SIGALRM handler.
SAMPLE_INTERVAL = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_kernel() -> float:
    """Fixed calibration work in the same mix as the package's hot paths:
    2x2 numpy products, Python float math, small objects, dicts, lists and
    float formatting. Never change it: normalised figures are only
    comparable while it stays the same."""
    m = np.array([[0.9, 0.2], [-0.1, 1.1]])
    v = np.array([1.0, 0.5])
    x = 0.0
    acc = []
    for i in range(130):
        v = m @ v
        v = v / math.sqrt(float(v @ v))
        x += math.sin(x + 1e-3 * i)
        p = _Pair(x, i)
        acc.append((p.a, p.b))
        d = {"k": p.a}
        x += d["k"] * 1e-9 + float(format(x, ".17g")) * 1e-12
    return x


class Calibrator:
    """Context manager that samples the reference kernel periodically.

    ``now()`` is ``time.perf_counter()`` minus the time spent in samples.
    ``mark()`` and ``factor(mark)`` bracket a piece of work; ``factor`` also
    takes a sample itself, so even work shorter than the interval has two.
    """

    def __init__(self):
        self.samples = []
        self._paused = 0.0
        self._previous = None
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def sample(self) -> None:
        self._busy = True
        start = time.perf_counter()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            reference_kernel()
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
        self._paused += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # an alarm during a sample must not nest
            self.sample()

    def __enter__(self):
        reference_kernel()  # first call pays one-time costs
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        self.sample()
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Uncontended ÷ mean sampled kernel time since ``mark``."""
        self.sample()
        return REFERENCE_S / statistics.mean(self.samples[mark:])
