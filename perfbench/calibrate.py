"""The host-speed probe that puts the benchmark's times on one scale.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, as other tenants come and go.
``probe`` times a fixed piece of work.  It runs a few times just before and
just after each timed stretch (a verdict, a set-up sample), and while a
verdict runs, ``Sampler`` runs it on a timer signal every
``SAMPLE_EVERY_S`` seconds; the time the samples take is subtracted from
the verdict's times.  Each time is divided by the mean of the probes taken
around and during it, which the timer spreads evenly over the time, and
multiplied by ``REFERENCE_S``, the probe's mean time on the machine the
baseline was taken on.  The end-to-end times are therefore seconds at that
machine's speed: a host that is 20% slower for a minute slows the probe and
the library alike and the reported time stays put, while a change to the
library moves the library's time and not the probe's.

The probe is fixed pure-Python work of the kinds the library does
(``Fraction`` arithmetic and comparisons, dict counting, sorting), and it
imports nothing from the library, so no library change can move it.  The
raw times and the probe times are kept in each run's result file.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Mean ``probe`` time over ten 30-second runs (7,244 probes) on a 2-vCPU
#: virtual machine on a shared host (Intel Xeon at 2.0 GHz, CPython 3.11.7).
REFERENCE_S = 0.0018

#: Probes run just before and again just after a timed stretch.
PROBES_PER_SIDE = 10

#: Seconds between two probes that ``Sampler`` runs during a verdict.
SAMPLE_EVERY_S = 0.05


def _work():
    total = Fraction(0)
    counts = {}
    for i in range(300):
        x = Fraction(i % 13, 1 + i % 17)
        total = total + x if total < 10 else x
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (item[1], -item[0]))
    return total, ordered[0], ordered[-1]


EXPECTED = _work()


def probe() -> float:
    """Run the fixed work once; the seconds it took."""
    start = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("the host-speed probe computed a different result")
    return elapsed


def probes() -> list:
    """``PROBES_PER_SIDE`` probe times."""
    return [probe() for _ in range(PROBES_PER_SIDE)]


def at_reference(seconds: float, probe_s) -> float:
    """``seconds`` measured along with the probes ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / statistics.mean(probe_s)


class Sampler:
    """Runs ``probe`` on a SIGALRM timer while the ``with`` block runs.

    The handler runs in the main thread between two bytecodes of whatever
    code is running, so the probe sees the host as the library does at that
    moment.  ``samples`` holds the probe times, and ``overhead_s`` the time
    the handler took in all, which the caller subtracts from what it timed.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:  # a signal that arrives while the probe runs
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(probe())
        self.overhead_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
