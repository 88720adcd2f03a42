"""Timing that survives changes of speed of a shared virtual machine.

The reference machine (a 2-vCPU KVM guest) switches between a fast and a
slow state every few seconds (a fixed numpy kernel takes 1.6x longer in the
slow state; no steal time is reported inside the guest), so raw medians of
20- and 25-second runs spread by 12-30% from run to run.  Each timed interval is therefore
bracketed by a fixed probe kernel and rescaled to the speed at which the
probe takes PROBE_REF_S, its time on the reference machine in the fast
state.  Raw times are kept alongside.  See bench/README.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

PROBE_REF_S = 0.0018
_PROBE_X = np.linspace(0.0, 1.0, 4097)
_REUSE_S = 0.005  # a closing probe older than this is not reused


def probe_seconds() -> float:
    """Time of a fixed mix of small numpy kernels and interpreted arithmetic,
    the two kinds of work magnetodisk does; it never touches the package."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(30):
        y = np.sin(_PROBE_X) * _PROBE_X
        acc += float(np.sum(np.diff(y) * y[1:]))
    k = 0
    for i in range(15000):
        k += i * i
    return time.perf_counter() - t0


class Stopwatch:
    """Sums the raw and the rescaled length of the intervals it times.  An
    interval that starts right after the previous one ends reuses that
    interval's closing probe as its opening one."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._last = (-1.0, 0.0)  # (clock when the closing probe ended, probe time)

    @contextmanager
    def interval(self):
        ended, before = self._last
        if time.perf_counter() - ended > _REUSE_S:
            before = probe_seconds()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            after = probe_seconds()
            self._last = (time.perf_counter(), after)
            self.raw += elapsed
            self.scaled += elapsed * 2.0 * PROBE_REF_S / (before + after)
