"""Machine-speed adjustment for the benchmark's timings.

On a shared host the same pure-Python work runs up to about 1.5 times
slower while a co-tenant shares the core, in phases of a few seconds to
minutes.  Raw seconds then move by +-20% between runs of identical code,
more than any bound worth setting.  So the benchmark also measures how
fast the core runs, while it runs:

* the process is pinned to one core, so the probe sees the core the
  requests run on;
* a daemon thread times the CPU cost (``time.thread_time``) of a fixed
  piece of reference work every ``PERIOD`` seconds;
* every measured interval [a, b] is rescaled by
  ``NOMINAL_S / median(reference costs within WINDOW seconds of it)``.

The result is in seconds at nominal machine speed.  ``NOMINAL_S`` is the
median reference cost the probe measured while the baseline in
README.md was recorded (2-core Xeon guest, CPython 3.11.7), so adjusted
and raw seconds agree at the baseline's typical speed; it scales every
timing alike and cancels out of any comparison.  The probe takes about
3% of the core, evenly spread, so it costs parent and change alike.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD = 0.2        # seconds between two reference samples
WINDOW = 1.0        # samples this close to an interval describe it
NOMINAL_S = 0.0064  # typical reference cost on the baseline machine


_MATRIX = [[(3 * i + 7 * j) % 11 - 5 for j in range(13)] for i in range(12)]


def reference_work():
    """Fixed pure-Python work with wittmod's profile, calling no wittmod
    code: exact Gauss-Jordan elimination on a small Fraction matrix (as in
    linalg.rref) and a product of sparse dict-of-terms polynomials with
    tuple keys (as in the element classes)."""
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    p = {((i % 4, i % 3), i % 2): Fraction(i + 1, i % 5 + 1)
         for i in range(32)}
    out = {}
    for (a, s), c in p.items():
        for (b, t), d in p.items():
            key = ((a[0] + b[0], a[1] + b[1]), s ^ t)
            v = out.get(key, 0) + c * d
            if v:
                out[key] = v
            else:
                del out[key]
    return rows, out


def pin_to_one_core():
    """Pin the calling thread, and every thread or child it starts after,
    to the lowest core this process may use (Linux only)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Context manager: samples the core's speed while the block runs;
    ``adjust`` then rescales intervals measured inside the block."""

    def __init__(self):
        self.mid = []
        self.cost = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while True:
            t0, c0 = time.perf_counter(), time.thread_time()
            reference_work()
            c1, t1 = time.thread_time(), time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.cost.append(c1 - c0)
            if self._stop.wait(PERIOD):
                return

    def cost_near(self, a, b):
        """Median reference cost within WINDOW of [a, b], or of the
        nearest sample when none is that close."""
        lo = bisect_left(self.mid, a - WINDOW)
        hi = bisect_right(self.mid, b + WINDOW)
        if lo < hi:
            return statistics.median(self.cost[lo:hi])
        k = min(lo, len(self.mid) - 1)
        if k > 0 and a - self.mid[k - 1] < self.mid[k] - b:
            k -= 1
        return self.cost[k]

    def adjust(self, a, b):
        """Seconds at nominal speed for the interval [a, b]."""
        return (b - a) * NOMINAL_S / self.cost_near(a, b)

    def median_cost(self):
        return statistics.median(self.cost)
