"""The machine's current speed, sampled beside the timed work.

This benchmark runs on shared hosts whose speed changes with the load of
other tenants: the same pure-Python code can run up to 2x slower for a
minute or more, and for a whole run.  So every time the benchmark reports
is scaled to a reference speed.  A timer interrupts the process every
``PERIOD_S`` and runs ``reference_work``, a fixed piece of pure-Python
integer and set work of the kind platlab does, and times it.  A measured
interval of platlab work, less the samples that ran inside it, is then
multiplied by ``REFERENCE_S / c``, where ``c`` is the median time of the
samples taken within ``WINDOW_S`` of the interval.

``reference_work`` does not call platlab, so a change to platlab moves
the scaled times as it moves the raw ones; a change of load on the host
moves both the interval and the samples beside it.  ``REFERENCE_S`` is the
time ``reference_work`` takes on an unloaded core of a 2-vCPU Intel Xeon
VM with Python 3.11; it fixes the unit and cancels in any comparison of
two runs.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PERIOD_S = 0.01
WINDOW_S = 0.05
REFERENCE_S = 2.5e-4
clock = time.perf_counter


def _reference_input(n=13, density=0.5, seed=20021):
    rng = random.Random(seed)
    rows = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < density:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    full = (1 << n) - 1
    return [full & ~r for r in rows], full


_SEEDS, _FULL = _reference_input()


def reference_work():
    """Intersection closure of fixed seeds, sorted by size, then a scan of
    the order relation over the smallest sets.  Returns a checksum."""
    uniq = sorted(set(_SEEDS))
    out = {_FULL}
    frontier = [_FULL]
    while frontier:
        nxt = []
        for x in frontier:
            for s in uniq:
                y = x & s
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    sets = sorted(out, key=lambda m: (bin(m).count("1"), m))
    below = 0
    for a in sets[:8]:
        for b in sets:
            if a & b == a:
                below += 1
    return len(sets) * 1000 + below


REFERENCE_RESULT = reference_work()


class Sampler:
    """Times ``reference_work`` every ``PERIOD_S`` while started."""

    def __init__(self):
        self.starts = []   # clock() at each sample's start, ascending
        self.costs = []    # seconds each sample took

    def _sample(self, signum, frame):
        t0 = clock()
        result = reference_work()
        self.costs.append(clock() - t0)
        self.starts.append(t0)
        if result != REFERENCE_RESULT:
            raise RuntimeError("reference work gave a wrong result")

    def start(self):
        self._sample(None, None)   # so that even a short interval has one
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, t0, t1):
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_left(self.starts, t1))

    def own(self, t0, t1):
        """Seconds of [t0, t1) that are not spent in samples."""
        i, j = self._span(t0, t1)
        return t1 - t0 - sum(self.costs[i:j])

    def scale(self, t0, t1):
        """Reference seconds per second of this machine around [t0, t1)."""
        i, j = self._span(t0 - WINDOW_S, t1 + WINDOW_S)
        if i == j:   # none near: the last sample before, or the first
            i, j = max(0, i - 1), max(1, j)
        return REFERENCE_S / statistics.median(self.costs[i:j])

    def scaled(self, t0, t1):
        """The platlab time in [t0, t1), at the reference speed."""
        return self.own(t0, t1) * self.scale(t0, t1)
