"""Machine-speed gauge: a fixed reference computation timed between items.

On a shared host the same item can take 1.0 s for a while and 1.6 s a few
seconds later, with no sign of it inside the virtual machine (no steal
time, no other process).  Every code path slows together, so run.py times
this reference between items and scales each item's latency by how slow
the reference ran around it.  The reference shares no code with
gpchannels, so a change to the program moves the scaled figures as much as
the raw ones.

The kernel mirrors the two instruction mixes the workloads spend their time
in: the oracle's batched outer products and superoperator products on
small complex matrices, and Python float formatting as in the CSV
timelines.  One sample is the fastest of three back-to-back calls: the
kernel's data stays in cache between them, so the item that ran before
does not change the sample.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: seconds one reference call takes on the baseline machine when it runs at
#: full speed (see NOTES.md); scaled latencies are latencies at that speed
NOMINAL_S = 0.0035
#: at most one sample per this many seconds between items
PERIOD_S = 0.25
#: an item is scaled by the median of the samples within this many seconds
#: of its midpoint (the nearest sample when there is none)
WINDOW_S = 2.0

_RNG = np.random.default_rng(20181012)
_SUPEROP = _RNG.standard_normal((49, 49)) + 1j * _RNG.standard_normal((49, 49))
_PSI = _RNG.standard_normal((512, 7)) + 1j * _RNG.standard_normal((512, 7))
_FLOATS = _RNG.standard_normal(1200).tolist()


def reference() -> None:
    for _ in range(4):
        v = np.einsum("bj,bi->bji", _PSI.conj(), _PSI).reshape(512, 49)
        w = (v @ _SUPEROP).reshape(512, 7, 7)
        np.einsum("bi,bij,bj->b", _PSI.conj(), w, _PSI)
    ",".join(f"{x:.17g}" for x in _FLOATS)


class Gauge:
    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.values: list[float] = []  # seconds of the reference
        self._last = -float("inf")

    def sample(self) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
        self.times.append(start)
        self.values.append(best)
        self._last = time.perf_counter()
        return best

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the reference's duration around time ``t``."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - t))
            near = [self.values[i]]
        else:
            near = self.values[lo:hi]
        return NOMINAL_S / statistics.median(near)
