"""Bounded discrete logarithm via baby-step/giant-step.

"Because encryption is at the exponent, recovering the original
plaintext requires computing the discrete logarithm … this operation is
feasible if the range of admissible cleartexts is small" (App. 10.4).
Profile coordinates, squared distances, and cluster sums are all small
bounded integers, so BSGS over a cached baby-step table makes
decryption cheap.

The textbook stride is ``m = ⌈√bound⌉``, which balances table size
against giant steps for *one* bound.  A deployment decrypts under many
— the distance bound ``m·Q²`` and one ``cardinality × Q`` per cluster
size, 48 of them in a 48-user round — and a table per bound is both
memory (each one an LRU entry) and steps: at the ``cluster_round``
shape (bound 160 000, stride 401) a distance dlog walked 49.7 giant
steps on average.  So the stride has a floor, :data:`BABY_STEPS_FLOOR`
= 4096 (≈0.3 MB of table at 256 bits): every bound up to floor² shares
the one table of that stride, a distance dlog is ≈5 giant steps, and a
cluster sum is found in the table directly.  Only bounds above floor²
get a wider table of their own; those are what the LRU cap
(:data:`MAX_CACHED_TABLES`) is for.  Each entry also pins the giant-step
stride ``g^{-m}`` — one exponentiation plus one inversion that would
otherwise be redone on every call.

A search that finds nothing costs ``bound // m + 1`` giant steps, no
more: a corrupted or out-of-range ciphertext cannot make it walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict

from repro.crypto import fastexp
from repro.crypto.group import SchnorrGroup
from repro.obs.metrics import WorkCounts


class DiscreteLogError(ValueError):
    """The element has no discrete log within the stated bound."""


#: fewest baby steps a table holds: one table serves every bound up to
#: the square of this
BABY_STEPS_FLOOR = 4096

#: LRU cap on cached baby-step tables (one per group for bounds up to
#: floor², one per distinct stride above it)
MAX_CACHED_TABLES = 32


class _Entry:
    """One cached BSGS context: baby table + giant-step stride."""

    __slots__ = ("table", "giant")

    def __init__(self, table: Dict[int, int], giant: int) -> None:
        self.table = table
        self.giant = giant


#: (p, g, m) → _Entry, most-recently-used last
_TABLE_CACHE: "OrderedDict[Tuple[int, int, int], _Entry]" = OrderedDict()


class DlogStats(WorkCounts):
    """Process-wide counts of this module's work (plain int adds), for
    the round runner to add to its telemetry as
    :class:`~repro.crypto.fastexp.FastexpStats` are."""

    __slots__ = ("calls", "evictions")


DLOG_STATS = DlogStats()


def _entry(group: SchnorrGroup, m: int) -> _Entry:
    key = (group.p, group.g, m)
    entry = _TABLE_CACHE.get(key)
    if entry is not None:
        _TABLE_CACHE.move_to_end(key)
        return entry
    table: Dict[int, int] = {}
    p, g = group.p, group.g
    value = 1
    for j in range(m):
        table.setdefault(value, j)
        value = value * g % p
    # giant-step stride g^{-m}: use the shared fixed-base table for g
    # when the hot path already built one, else a raw exponentiation
    gtab = fastexp.cached_table(group.p, group.g)
    g_m = gtab.pow(m) if gtab is not None else group.gexp(m)
    entry = _Entry(table=table, giant=group.inv(g_m))
    _TABLE_CACHE[key] = entry
    while len(_TABLE_CACHE) > MAX_CACHED_TABLES:
        _TABLE_CACHE.popitem(last=False)
        DLOG_STATS.evictions += 1
    return entry


def _stride(bound: int) -> int:
    """Baby steps for ``bound``: ⌊√bound⌋, but never fewer than the floor."""
    return max(BABY_STEPS_FLOOR, math.isqrt(bound))


def prewarm(group: SchnorrGroup, bound: int) -> None:
    """Build the BSGS context for ``bound`` ahead of time.

    Called by the Aggregator before forking its worker pool so every
    worker inherits the table copy-on-write instead of rebuilding it.
    """
    if bound >= 0:
        _entry(group, _stride(bound))


def discrete_log(group: SchnorrGroup, element: int, bound: int) -> int:
    """Find x in [0, bound] with g^x ≡ element (mod p).

    Raises :class:`DiscreteLogError` when no such x exists — which, in
    the protocols, signals either a corrupted ciphertext or a plaintext
    outside the agreed range.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    m = _stride(bound)
    entry = _entry(group, m)
    DLOG_STATS.calls += 1
    table = entry.table
    giant = entry.giant
    p = group.p
    gamma = element % p
    # every x ≤ bound decomposes as x = i·m + j with j < m and
    # i ≤ bound // m, so exactly bound // m + 1 giant steps suffice
    for i in range(bound // m + 1):
        j = table.get(gamma)
        if j is not None:
            x = i * m + j
            if x <= bound:
                return x
        gamma = gamma * giant % p
    raise DiscreteLogError(f"no discrete log within bound {bound}")


def dlog_cache_info() -> Dict[str, int]:
    """Introspection for tests and the telemetry gauge."""
    return {"entries": len(_TABLE_CACHE), "max_entries": MAX_CACHED_TABLES}


def clear_dlog_cache() -> None:
    """Drop all cached baby-step tables (used by memory-sensitive tests)."""
    _TABLE_CACHE.clear()
