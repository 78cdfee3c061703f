"""CPU speed probe: a fixed reference computation timed throughout a run.

On the shared 2-vCPU host this benchmark was built on, the CPU runs at
different speeds up to ~1.8x apart, switching every few seconds and
sometimes staying slow for minutes, and interpreter-bound code slows more
than array-bound code.  Raw times therefore spread by 20-60% between runs
of the same code, which no run length can settle.

A probe of two parts runs at most every ``INTERVAL_S`` at operation
boundaries, outside every timed interval.  Each part takes about
``PART_S`` in the host's fast state:

* ``interpreter``: a dict-update loop and small numpy calls;
* ``array``: the forward product, gradient product and update of one
  32x169x500 training batch.

A time measured over ``[t0, t1]`` is reported at reference speed:
multiplied by the fast-state time of the parts that resemble the measured
work, over their median time within ``WINDOW_S`` of the interval.  The
window is shorter than the speed's phases and long enough that one slow
probe does not move the median.  Reference-speed seconds therefore read
like wall seconds in the fast state.  Raw times and the probe times are
printed alongside every result.

Which parts resemble which work was chosen by measurement: over 60-90 s of
interleaved runs, normalising by the matching parts cut the spread of
windowed medians from 0.2-0.3 to 0.01-0.06 (iris epochs by
``interpreter``; digits epochs and SRM neurons by ``array``; the conv
encoder, which mixes both, by both), while mismatched parts left 0.09-0.21.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PART_S = 0.7e-3
INTERVAL_S = 0.05
WINDOW_S = 0.5


class SpeedProbe:
    PARTS = ("interpreter", "array")

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((32, 169))
        self._w = rng.random((169, 500))
        self.times: list[float] = []  # when each probe ended
        self.values = {part: [] for part in self.PARTS}  # each part's time per probe
        self.spent = 0.0

    @staticmethod
    def _interpreter():
        counts: dict[int, int] = {}
        for i in range(4000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        x = np.zeros(25)
        for _ in range(100):
            x = np.maximum(x * 0.5 + 1.0, 0.0)

    def _array(self):
        y = np.maximum(self._x @ self._w / 169.0, 0.0)
        self._w - 0.01 * (self._x.T @ y)

    def tick(self):
        """Probe now unless a probe ran within the last ``INTERVAL_S``."""
        start = perf_counter()
        if self.times and start - self.times[-1] < INTERVAL_S:
            return
        self._interpreter()
        middle = perf_counter()
        self._array()
        end = perf_counter()
        self.times.append(end)
        self.values["interpreter"].append(middle - start)
        self.values["array"].append(end - middle)
        self.spent += end - start

    def factor(self, t0: float, t1: float, parts: tuple[str, ...]) -> float:
        """Reference-speed scale for ``[t0, t1]``: the fast-state time of
        ``parts`` over their median time within ``WINDOW_S`` of the interval
        (or at the nearest probe)."""
        first = bisect_left(self.times, t0 - WINDOW_S)
        last = bisect_right(self.times, t1 + WINDOW_S)
        if first == last:
            first = max(first - 1, 0)
            last = first + 1
        probe_s = [sum(self.values[p][i] for p in parts) for i in range(first, last)]
        return PART_S * len(parts) / statistics.median(probe_s)
