"""How fast the host runs right now, from a fixed probe timed next to each
operation.

On a shared host the same code runs at speeds up to about 1.9x apart, in
spells of a fraction of a second to minutes: within single 20 s
irregular-track runs the median of 64 consecutive operations swung between
5.0 and 9.4 ms.  The probe, timed between the operations, swings with them,
so every end-to-end time is reported at one fixed host speed: its CPU time
divided by the probes' slowdown against their reference times.

The probe is three small kernels of the package's kinds of work, an
interpreted float loop, element-wise indexing of a small array and products
of small matrices, that use nothing of the package, so that no change to the
program can change them.  Each is scaled by its own reference time and the
median of the three is taken: one kernel alone sometimes ran 10-25 % slower
than usual for the whole of a process while the operations did not, and the
median of three keeps that out.
"""

import statistics
import time

import numpy as np

_ROT = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
_SYM = _ROT @ np.diag(np.arange(1.0, 7.0)) @ _ROT.T


def _interpreted():
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    return s


def _indexed():
    """One sweep of plane rotations over a copy of a 6 x 6 matrix, element
    by element."""
    a = _SYM.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            c = 1.0 / np.sqrt(1.0 + a[p, q] * a[p, q])
            t = 0.5 * c
            for k in range(n):
                x, y = a[k, p], a[k, q]
                a[k, p] = c * x - t * y
                a[k, q] = t * x + c * y
    return a[0, 0]


def _products():
    """Products of an orthogonal matrix, which neither grow nor shrink
    towards subnormal numbers."""
    x = _ROT
    for _ in range(40):
        x = x @ _ROT
    return x


#: the probe's kernels, each with its CPU time at the reference host speed:
#: its median over 24 processes on a 2.1 GHz Xeon vCPU of this host
KERNELS = ((_interpreted, 1.65e-4), (_indexed, 1.2e-4), (_products, 7.0e-5))


def probe_times(count, clock=time.process_time):
    """CPU times of ``count`` probes in a row, in seconds, as one list per
    kernel."""
    times = [[] for _ in KERNELS]
    for _ in range(count):
        for (kernel, _), out in zip(KERNELS, times):
            t0 = clock()
            kernel()
            out.append(clock() - t0)
    return times


def slowdown(before, after):
    """How much slower than the reference the host ran between two probe
    blocks: the median over the kernels of each kernel's median time over
    its reference time."""
    return statistics.median(statistics.median(b + a) / ref
                             for (_, ref), b, a in zip(KERNELS, before, after))


class SegmentClock:
    """Times work in segments, with a block of ``probes`` probes between
    segments.  Each segment is scaled to the reference host speed by the
    blocks on either side of it; the probes' own time is left out of both
    sums."""

    def __init__(self, probes, clock=time.process_time):
        self.probes, self.clock = probes, clock
        self.cpu = self.scaled = 0.0
        self.slowdowns = []
        self._before = probe_times(probes, clock)
        self._t0 = clock()

    def tick(self):
        """End the current segment and start the next; returns the
        segment's (CPU seconds, seconds at the reference speed)."""
        seconds = self.clock() - self._t0
        after = probe_times(self.probes, self.clock)
        self.slowdowns.append(slowdown(self._before, after))
        scaled = seconds / self.slowdowns[-1]
        self.cpu += seconds
        self.scaled += scaled
        self._before = after
        self._t0 = self.clock()
        return seconds, scaled
