"""Host-speed sampling, so that timings on a shared host compare across runs.

On a host shared with other tenants the speed of one core can halve and
recover within seconds, while CPU time keeps tracking wall time.  A run that
falls in a slow stretch then reads slow although the program did not change.

A fixed calibration kernel measures that speed.  It mixes the kinds of work
the toolkit does: small-array numpy row operations like an LP pivot, pure
Python dictionary and string work, and a sweep over a 1 MiB array.  It calls
nothing in the package, so a change to the program never moves it.

``Sampler`` runs the kernel from a ``SIGALRM`` timer every ``PERIOD_S``
seconds of wall time while the workload runs, in the same process and thread,
so that each sample meets the caches as the workload leaves them.
Each sample gives the momentary speed ``REF_KERNEL_S / duration``, 1.0 for a
host as fast as the reference.  Time spent in the handler is taken out of the
operation it interrupted.  A time "at reference speed" is a wall time
multiplied by the mean speed sampled while it elapsed: that is how long the
same work would have taken on a host that ran steadily at the reference
speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Sampling period while operations run, and while a set-up probe of about
# 0.25 s runs, so that a probe still collects a dozen samples.
PERIOD_S = 0.05
SETUP_PERIOD_S = 0.01
# Duration of one kernel call on the reference host, a 2-core Xeon on which
# it drifts between about 0.35 and 0.65 ms.
REF_KERNEL_S = 4.5e-4
# A window of operations is normalised once it holds this many samples.
MIN_SAMPLES = 20

_ROWS = np.random.default_rng(0).random((12, 40))
_SWEEP = np.random.default_rng(1).random(1 << 17)


def kernel() -> float:
    """A fixed amount of mixed work; returns a number so nothing is optimised away."""
    counts = {}
    total = 0.0
    for k in range(400):
        counts[k % 37] = counts.get(k % 37, 0) + k
        total += len(str(k))
    a = _ROWS.copy()
    for k in range(30):
        r, c = k % 12, (k * 7) % 40
        a[r] /= a[r, c] + 1.0
        a -= np.outer(a[:, c], a[r]) * 1e-3
    return total + float(_SWEEP[::8].sum()) + float(_SWEEP.sum()) + float(a[0, 0])


class Sampler:
    """Samples host speed from a wall-clock timer while it is active.

    ``spent`` is the total time spent in the handler; ``samples`` holds
    ``(perf_counter at start, speed)`` per kernel call.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.spent = 0.0
        self.samples = []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            kernel()
            t1 = time.perf_counter()
            self.samples.append((t0, REF_KERNEL_S / (t1 - t0)))
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self):
        kernel()  # warm up before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def speeds_between(self, t0: float, t1: float) -> list:
        return [s for t, s in self.samples if t0 <= t < t1]


def windows(records, sampler: Sampler) -> list:
    """Per-operation seconds at reference speed, one value per window.

    ``records`` are consecutive operations with ``t0``/``t1`` (perf_counter
    at start and end) and ``s`` (wall seconds net of handler time).  They are
    grouped in order into windows holding at least ``MIN_SAMPLES`` speed
    samples; a short tail joins the window before it.  A window's value is
    its mean operation time times the mean speed sampled within it.
    """
    groups, current = [], []
    for r in records:
        current.append(r)
        if len(sampler.speeds_between(current[0]["t0"], r["t1"])) >= MIN_SAMPLES:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    values = []
    for group in groups:
        speeds = sampler.speeds_between(group[0]["t0"], group[-1]["t1"])
        if not speeds:
            speeds = [s for _, s in sampler.samples] or [1.0]
        mean_s = statistics.fmean(r["s"] for r in group)
        values.append(mean_s * statistics.fmean(speeds))
    return values
