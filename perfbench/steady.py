"""The reference loop that steadies the benchmark's timings.

On a shared host the same operation can take 70 % longer in one process
than in another a few minutes later, and the slowdown loads the
benchmark's own code as much as the program. So each timed interval is
divided by a fixed reference loop timed just before and just after it, and
the ratio is scaled back to seconds by that loop's nominal time on the
reference host.

The loop mixes what the program does: interpreter steps with a dict, small
dense solves and small numpy calls. It takes about 0.15 s, long enough to
average out the host's bursts of contention, which a 0.05 s loop catches or
misses at random. To keep its cost near a tenth of a pass, operations
shorter than a second share loops with their neighbours: a loop runs
before or after an operation only if the last one ended over a second ago.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of the reference loop on the reference host (2 vCPU Xeon,
# Python 3.11, numpy 2.4, OpenBLAS pinned to one thread). Recompute with
# `python3 perfbench/run.py --calibrate`.
NOMINAL_S = 0.135

INTERVAL_S = 1.0

_LOOP_STEPS = 300_000
_SOLVES = 4_500
_SMALL_OPS = 4_500


class References:
    """The reference loop, with its inputs allocated once, and its log."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((8, 8)) + 8.0 * np.eye(8)
        self._b = rng.random(8)
        self.log = []  # (start, end) of every loop

    def measure(self) -> float:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(_LOOP_STEPS):
            acc += i % 7
            table[i & 255] = acc
        for _ in range(_SOLVES):
            np.linalg.solve(self._a, self._b)
        gen = np.random.default_rng(1)
        for _ in range(_SMALL_OPS):
            x = gen.random(8)
            np.where(x > 0.5, x, np.cumsum(np.sort(x)))
            x @ self._b
        t1 = time.perf_counter()
        self.log.append((t0, t1))
        return t1 - t0

    def age(self) -> float:
        """Seconds since the last loop ended (inf if none ran)."""
        return time.perf_counter() - self.log[-1][1] if self.log else float("inf")

    def around(self, start: float, end: float) -> float:
        """Mean time of the loops just before and just after an interval."""
        before = max((s, e) for s, e in self.log if e <= start)
        after = min((s, e) for s, e in self.log if s >= end)
        return (before[1] - before[0] + after[1] - after[0]) / 2.0

    def raw(self) -> list[float]:
        return [e - s for s, e in self.log]


def calibrate(samples: int = 21) -> float:
    """Median time of the reference loop on this host."""
    refs = References()
    refs.measure()  # first touch of the inputs
    return statistics.median(refs.measure() for _ in range(samples))
