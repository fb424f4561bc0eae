"""Speed calibration: report times as if measured on a reference machine.

The shared VM this benchmark runs on drifts in speed by ±15 % between
identical fresh-process runs (the drift is the host's, not scheduling
noise), which is wider than any regression bound worth having.  So a
fixed pure-Python *calibration slice* is interleaved with the measured
operations, and every operation's wall time is scaled by

    CAL_REF_MS / (median of the 9 slices nearest to the operation)

The slice mixes what the system under test mixes — a regex scan, dict
and list churn, ``str.join``, a sort and an integer loop — so the
interpreter slows down and speeds up on it the way it does on a price
check.  Calibration only holds for work that is CPU-bound *in this
process*; it says nothing about time spent blocked on a disk, a remote
socket or another process.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter
from typing import List, Sequence

#: what one slice costs on the reference machine, in milliseconds.  Every
#: calibrated metric is relative to this constant; result files that were
#: produced with a different value are not comparable (compare.py refuses).
CAL_REF_MS = 0.8

#: how many neighbouring slices set the local speed of one operation
WINDOW = 9

_TOKEN_RE = re.compile(r"<[^>]*>|[^<]+")
_PAGE = (
    '<div class="product"><h2>Item</h2>'
    '<span class="price">EUR 1,234.56</span><p>In stock</p></div>\n'
) * 240


def slice_ms() -> float:
    """Run the fixed calibration kernel once; return its wall time in ms."""
    t0 = perf_counter()
    tokens = _TOKEN_RE.findall(_PAGE)
    seen = {}
    for i, token in enumerate(tokens):
        seen.setdefault(token, []).append(i)
    joined = "|".join(sorted(seen))
    order = sorted(range(1200), key=lambda k: (k * 7919) % 211)
    acc = len(joined) + order[0]
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFF
    elapsed = perf_counter() - t0
    if acc < 0:  # never true; keeps the loop's result consumed
        raise AssertionError
    return elapsed * 1e3


class Calibrator:
    """Collects slices in run order and turns them into speed factors."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def take(self, n: int) -> int:
        """Run ``n`` slices now; return the index of the middle one."""
        first = len(self.slices)
        for _ in range(n):
            self.slices.append(slice_ms())
        return first + n // 2

    def local_ms(self, center: int) -> float:
        """Median of the ``WINDOW`` slices nearest to slice ``center``."""
        n = len(self.slices)
        lo = max(0, min(center - WINDOW // 2, n - WINDOW))
        return statistics.median(self.slices[lo:lo + WINDOW])

    def factor(self, center: int) -> float:
        """Multiply a raw time taken near ``center`` by this."""
        return CAL_REF_MS / self.local_ms(center)

    def summary(self) -> dict:
        """``cal.slice_ms`` (median) and ``cal.cv`` (stdev / mean)."""
        mean = statistics.fmean(self.slices)
        return {
            "cal.slice_ms": statistics.median(self.slices),
            "cal.cv": statistics.pstdev(self.slices) / mean,
        }


def factor_of(slices: Sequence[float]) -> float:
    """Speed factor from a bare list of slices (the set-up bracket)."""
    return CAL_REF_MS / statistics.median(slices)
