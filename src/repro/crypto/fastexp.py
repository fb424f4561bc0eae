"""Fast modular exponentiation for the secure k-means hot path.

The protocol of Sect. 3.8 / App. 10.4 spends essentially all of its
time computing ``base^e mod p`` for a handful of *fixed* bases: the
group generator ``g`` (every encryption, every mask, every unmask) and
the Coordinator's public keys ``h_i`` (one per vector component, reused
by every client).  CPython's built-in three-argument ``pow`` re-derives
everything from scratch on each call — at RFC-3526 2048-bit parameters
that is ~35 ms per exponentiation, and even at the 64-bit test group the
interpreter overhead alone is ~20 µs.

Two classic techniques cut this down:

* **fixed-base comb tables** (:class:`FixedBaseTable`) — precompute
  ``base^(d · 2^{w·j})`` for every window position ``j`` and digit
  ``d < 2^w``; an exponentiation then costs one table lookup and one
  modular multiplication per non-zero window (⌈|q|/w⌉ of them) instead
  of |q| squarings plus multiplications.  Measured speedup vs built-in
  ``pow``: ~5x at 64-bit (w=8) and ~4.5x at 2048-bit (w=4), before any
  reuse of the table build.
* **Montgomery batch inversion** (:func:`batch_invert`) — n modular
  inverses for the price of one inversion plus 3(n−1) multiplications.
  A single inversion (``pow(a, -1, p)``, extended Euclid) costs as much
  as some fifty multiplications at 256 bits, so unmasking a whole client
  batch this way is a constant-factor win.

Tables for truly fixed bases (``g``, the ``h_i``) live in a module-level
LRU cache (:func:`fixed_base`) so that (a) every scheme object sharing a
group shares tables and (b) worker processes forked *after* the tables
are built inherit them copy-on-write, paying the build cost once per
protocol run rather than once per worker per call.  Per-ciphertext bases
(a masked ``α`` evaluated against many centroids) use cheaper
*ephemeral* tables via :func:`ephemeral_table`, which falls back to
built-in ``pow`` when too few exponentiations are expected to amortize
the build.

Everything here is bit-compatible with built-in ``pow``: for any base
and exponent, ``FixedBaseTable.pow(e) == pow(base, e % q, p)``.  The
schemes above this layer have no other arithmetic; the raw-``pow``
textbook versions they are checked against live in
``tests/oracles/crypto_naive.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

__all__ = [
    "FixedBaseTable",
    "batch_invert",
    "clear_fastexp_cache",
    "ephemeral_table",
    "fastexp_cache_info",
    "fixed_base",
]

#: fixed-base tables cached per (modulus, base); LRU-bounded because
#: public keys are per-protocol-run ephemera and would otherwise leak
MAX_CACHED_TABLES = 256

#: below this many expected uses an ephemeral table costs more to build
#: than it saves (break-even is ~2 uses at 64-bit, ~4 at 2048-bit)
EPHEMERAL_MIN_USES = 5


class _Metrics:
    """Module-level instrument slots, ``None`` until telemetry binds."""

    __slots__ = ("pows", "builds", "tables", "batch_inversions")

    def __init__(self) -> None:
        self.pows = None
        self.builds = None
        self.tables = None
        self.batch_inversions = None


_METRICS = _Metrics()


def bind_instruments(pows=None, builds=None, tables=None, batch_inversions=None) -> None:
    """Attach ``sheriff_crypto_fastexp_*`` instruments (see crypto.obs)."""
    _METRICS.pows = pows
    _METRICS.builds = builds
    _METRICS.tables = tables
    _METRICS.batch_inversions = batch_inversions
    if tables is not None:
        tables.set(len(_TABLE_CACHE))


def _default_window(qbits: int) -> int:
    """Window width balancing table size against per-pow multiplications.

    Wider windows mean fewer multiplications per exponentiation but a
    2^w-per-window build cost and memory footprint; the sweet spots were
    measured on CPython 3.11 (see module docstring).
    """
    if qbits <= 128:
        return 8
    if qbits <= 512:
        return 6
    return 4


class FixedBaseTable:
    """Windowed comb precomputation for one ``(base, p, q)`` triple.

    ``rows[j][d] == base^(d · 2^{w·j}) mod p`` for window index ``j`` and
    digit ``d``.  :meth:`pow` walks the exponent's base-2^w digits and
    multiplies the matching entries — no squarings at all, and small
    exponents touch only their few low windows.
    """

    __slots__ = ("p", "q", "base", "window", "rows")

    def __init__(self, p: int, q: int, base: int, window: Optional[int] = None) -> None:
        self.p = p
        self.q = q
        self.base = base % p
        self.window = window if window is not None else _default_window(q.bit_length())
        w = self.window
        n_windows = (q.bit_length() + w - 1) // w
        rows: List[List[int]] = []
        b_j = self.base  # base^(2^{w·j}), advanced as rows are built
        for _ in range(n_windows):
            row = [1] * (1 << w)
            acc = 1
            for d in range(1, 1 << w):
                acc = acc * b_j % p
                row[d] = acc
            rows.append(row)
            b_j = row[-1] * b_j % p  # b_j^(2^w - 1) · b_j = b_j^(2^w)
        self.rows = rows
        if _METRICS.builds is not None:
            _METRICS.builds.inc()

    @property
    def n_windows(self) -> int:
        return len(self.rows)

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p`` with the exponent reduced mod q."""
        e = exponent % self.q
        p = self.p
        rows = self.rows
        mask = (1 << self.window) - 1
        w = self.window
        result = 1
        j = 0
        while e:
            d = e & mask
            if d:
                result = result * rows[j][d] % p
            e >>= w
            j += 1
        if _METRICS.pows is not None:
            _METRICS.pows.inc()
        return result


#: (p, base) → FixedBaseTable, most-recently-used last
_TABLE_CACHE: "OrderedDict[Tuple[int, int], FixedBaseTable]" = OrderedDict()


def fixed_base(p: int, q: int, base: int) -> FixedBaseTable:
    """The shared, LRU-cached table for a long-lived base (g, h_i)."""
    key = (p, base % p)
    table = _TABLE_CACHE.get(key)
    if table is not None:
        _TABLE_CACHE.move_to_end(key)
        return table
    table = FixedBaseTable(p, q, base)
    _TABLE_CACHE[key] = table
    while len(_TABLE_CACHE) > MAX_CACHED_TABLES:
        _TABLE_CACHE.popitem(last=False)
    if _METRICS.tables is not None:
        _METRICS.tables.set(len(_TABLE_CACHE))
    return table


def cached_table(p: int, base: int) -> Optional[FixedBaseTable]:
    """Peek: the cached table for ``base`` if one exists, else ``None``.

    Lets cold paths (a lone discrete log) avoid paying a table build
    they would never amortize, while hot paths that already built the
    table get the fast route for free.
    """
    table = _TABLE_CACHE.get((p, base % p))
    if table is not None:
        _TABLE_CACHE.move_to_end((p, base % p))
    return table


class _PowProxy:
    """Built-in ``pow`` behind the :class:`FixedBaseTable` interface."""

    __slots__ = ("p", "q", "base")

    def __init__(self, p: int, q: int, base: int) -> None:
        self.p = p
        self.q = q
        self.base = base % p

    def pow(self, exponent: int) -> int:
        return pow(self.base, exponent % self.q, self.p)


def ephemeral_table(p: int, q: int, base: int, expected_uses: int):
    """A throwaway exponentiation handle for a per-ciphertext base.

    Builds a narrow (w=4) comb table when ``expected_uses`` will
    amortize it, otherwise returns a thin built-in-``pow`` proxy.  Never
    touches the module cache.
    """
    if expected_uses >= EPHEMERAL_MIN_USES:
        return FixedBaseTable(p, q, base, window=4)
    return _PowProxy(p, q, base)


def batch_invert(p: int, values: Sequence[int]) -> List[int]:
    """Montgomery's trick: invert every value mod p with one inversion.

    Computes prefix products left-to-right, inverts the grand total
    once (``pow(·, -1, p)``), then peels inverses off right-to-left.
    3(n−1) multiplications + 1 inversion instead of n inversions.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [1] * n
    acc = 1
    for i, v in enumerate(values):
        v %= p
        if v == 0:
            raise ZeroDivisionError("cannot invert 0 mod p")
        prefix[i] = acc
        acc = acc * v % p
    inv_acc = pow(acc, -1, p)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * inv_acc % p
        inv_acc = inv_acc * (values[i] % p) % p
    if _METRICS.batch_inversions is not None:
        _METRICS.batch_inversions.inc()
    return out


def fastexp_cache_info() -> Dict[str, int]:
    """Introspection for tests and the telemetry gauge."""
    return {
        "entries": len(_TABLE_CACHE),
        "max_entries": MAX_CACHED_TABLES,
        "windows": sum(t.n_windows for t in _TABLE_CACHE.values()),
    }


def clear_fastexp_cache() -> None:
    """Drop all cached fixed-base tables (memory-sensitive tests)."""
    _TABLE_CACHE.clear()
    if _METRICS.tables is not None:
        _METRICS.tables.set(0)
