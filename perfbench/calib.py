"""A fixed pure-Python workload that gauges how fast the host runs right now.

On a shared host the speed of the whole machine drifts by up to 2x within
minutes, as other tenants load it.  run.py runs short slices of this
workload before every timed pass, after it, and every EVERY_S seconds within
it, and scales the pass's wall times by the mean speed the slices measured.
The end-to-end figures are then in *reference seconds*: the time the pass
would have taken on the host when it ran this workload at REF_SPEED units
per second.  Nothing here depends on amparse, so a change to the library
does not move it.

A unit has two halves of about equal time, because neither alone tracks
every workload well: a CKY-style table fill over frozenset signatures, like
the library's chart and type algebra, and a churn of small tuples, sets and
lists through a dict, like its decoders' bookkeeping.  The garbage collector
is held off during a slice, so the size of the heap the library has built up
does not change the slice's speed.
"""

from __future__ import annotations

import gc
import math
import random
from time import perf_counter

# Units per second on the host the bounds were set on: a 2-vCPU Intel Xeon
# virtual machine, CPython 3.11, in a typical state of its load.
REF_SPEED = 880.0
# Seconds of calibration per slice, and the most time between two slices
# within a pass.
SLICE_S = 0.05
EVERY_S = 0.5

_rng = random.Random(7)
_KEYS = [frozenset(_rng.sample(range(12), 3)) for _ in range(64)]
_TABLE = {(a, b): a | b for a in _KEYS for b in _KEYS if not (a & b)}
_N = 9


def _table_fill() -> int:
    """Fill a CKY table over 9 cells, keeping the 8 best signatures per span."""
    chart = {
        (i, i + 1): {k: float(j) for j, k in enumerate(_KEYS[i * 5 % 64:i * 5 % 64 + 6])}
        for i in range(_N)
    }
    for width in range(2, _N + 1):
        for i in range(_N - width + 1):
            cell: dict = {}
            for m in range(i + 1, i + width):
                for a, ca in chart[(i, m)].items():
                    for b, cb in chart[(m, i + width)].items():
                        c = _TABLE.get((a, b))
                        if c is not None:
                            s = ca + cb
                            if s < cell.get(c, 1e18):
                                cell[c] = s
            chart[(i, i + width)] = dict(sorted(cell.items(), key=lambda kv: kv[1])[:8])
    return len(chart)


def _churn() -> int:
    """Group 500 small tuples by key, then sort the groups."""
    groups: dict = {}
    for i in range(500):
        key = (i % 17, frozenset((i % 5, i % 7)))
        groups.setdefault(key, []).append((i * 31) % 101)
    return sum(len(v) for v in sorted(groups.values(), key=len))


def unit() -> int:
    return _table_fill() + _churn()


def speed(seconds: float = SLICE_S) -> float:
    """The host's speed relative to the reference, over about `seconds` of
    calibration work: 1.0 on the reference host, 0.5 on one half as fast."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        done = 0
        while True:
            unit()
            done += 1
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return done / elapsed / REF_SPEED
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """The host's speed, sampled in short slices of the calibration workload."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.last = -math.inf

    def sample(self) -> float:
        """Run one slice; return the seconds it took."""
        t0 = perf_counter()
        self.speeds.append(speed())
        self.last = perf_counter()
        return self.last - t0

    def due(self) -> float:
        """Run one slice if EVERY_S seconds have passed since the last one;
        return the seconds it took, or 0."""
        return self.sample() if perf_counter() - self.last >= EVERY_S else 0.0
