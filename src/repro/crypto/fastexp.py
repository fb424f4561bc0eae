"""Modular exponentiation in the three shapes the secure k-means issues.

The protocol of Sect. 3.8 / App. 10.4 spends essentially all of its
time on ``base^e mod p``, and it never asks for one exponentiation at a
time.  A modular multiplication costs the same wherever it runs — at
the 256-bit ``BENCH_GROUP_256`` of the ``cluster_round`` workload,
0.42 µs as ``a * b % p`` and the same inside built-in ``pow``, which
spends ≈307 of them on a 255-bit exponent (122 µs) — so the only thing
to save is multiplications that the results of one batch can share.
(All timings in this package's docstrings: microbenchmarks, best of 9,
on the box that ran ISSUE 23's ``bench/`` pairs.)  The batches come in
three shapes:

1. **one exponent × many fixed bases** (:func:`pow_bases`).  An
   encryption or a mask raises ``g`` and the t public keys ``h_i`` to
   the *same* fresh ``r``.  Each long-lived base has a comb table
   (:class:`FixedBaseTable`: ``base^(d · 2^{w·j})`` for every window
   ``j`` and digit ``d < 2^w``, so an exponentiation is one
   multiplication per non-zero digit — 43 at 256 bits — and no
   squarings); the digits of ``r`` are cut once (:func:`cut_digits`)
   and folded against every table.  26.5 µs → 20 µs per result; the
   rest is the 43-multiplication floor.
2. **one fresh base × many full-width exponents**
   (:class:`SharedExponents`).  The Coordinator raises each masked
   ``α`` to the k function keys ``f_k``, and each cluster aggregate's
   ``α`` to the secret keys ``x_i``.  The base is new every time and
   the exponents are not (one set per distance chunk), so all that
   depends on the exponents alone is done once, and each base pays one
   squaring ladder plus a few dozen multiplications per exponent
   (k = 4: 493 µs → 212 µs; k = 16: 1975 → 520).
3. **many bases × small signed exponents → k products**
   (:class:`SignedProducts`).  ``Π_i β_i^{s_{k,i}}`` for the k centroid
   function vectors, whose entries are as small as the profile data
   (``−2·b_i``, ``Σ b_i²``).  Each ``β_i`` is squared up its own short
   ladder once, and each rung is multiplied into the numerator or
   denominator of every vector whose ``|s_{k,i}|`` has that bit set
   (at k = 4, m = 16: ≈225 multiplications per ciphertext, 104 µs,
   against 151 µs for one built-in ``pow`` per entry; the gap widens
   with k); which rung goes where is planned once per chunk.

Beside them, **Montgomery batch inversion** (:func:`batch_invert`): n
inverses for one ``pow(·, -1, p)`` plus 3(n−1) multiplications.  An
inversion is extended Euclid, not an exponentiation — 20 µs at 256
bits, about fifty multiplications — so batching the per-centroid
denominators of a whole chunk is a constant-factor win, no more.

Tables for long-lived bases (``g``, the ``h_i``) sit in a module-level
LRU cache (:func:`fixed_base`), so every scheme object over one group
shares them and worker processes forked after they are built inherit
them copy-on-write.  The 18 ``h_i`` tables of a ``cluster_round`` op
(keys are per round; 1.2 ms each) are ≈13 % of it and the comb folds of
shape 1 ≈43 %; neither can be shared further.

Everything here is bit-compatible with built-in ``pow``:
``FixedBaseTable.pow(e) == pow(base, e % q, p)`` and likewise for every
batch entry point.  The schemes above this layer have no other
arithmetic; the raw-``pow`` textbook they are checked against lives in
``tests/oracles/crypto_naive.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import WorkCounts

__all__ = [
    "FASTEXP_STATS",
    "FixedBaseTable",
    "SharedExponents",
    "SignedProducts",
    "batch_invert",
    "cut_digits",
    "fastexp_cache_info",
    "fixed_base",
    "pow_bases",
]

#: fixed-base tables cached per (modulus, base); LRU-bounded because
#: public keys are per-protocol-run ephemera and would otherwise leak
MAX_CACHED_TABLES = 256


class FastexpStats(WorkCounts):
    """Process-wide counts of this module's work (plain int adds).  The
    tables are shared by every scheme object in the process, so a round
    runner adds what they grew by during its round to its own
    ``sheriff_crypto_*`` counters."""

    __slots__ = ("pows", "table_builds", "batch_inversions")


FASTEXP_STATS = FastexpStats()


def _default_window(qbits: int) -> int:
    """Window width of a long-lived table: size against per-pow work.

    Wider windows mean fewer multiplications per exponentiation but a
    2^w-per-window build cost and memory footprint.  At 256 bits a
    48-user round uses each ``h_i`` table ≈190 times: build included,
    w = 6 is 195 k multiplications over the 18 tables, w = 5 199 k,
    w = 7 211 k.
    """
    if qbits <= 128:
        return 8
    if qbits <= 512:
        return 6
    return 4


def cut_digits(exponent: int, window: int) -> List[int]:
    """Where the non-zero base-2^w digits of ``exponent`` sit in a comb
    table's ``flat`` list (any table of that window width)."""
    mask = (1 << window) - 1
    positions = []
    offset = 0
    while exponent:
        digit = exponent & mask
        if digit:
            positions.append(offset + digit)
        exponent >>= window
        offset += mask + 1
    return positions


class FixedBaseTable:
    """Windowed comb precomputation for one ``(base, p, q)`` triple.

    ``flat[(j << w) + d] == base^(d · 2^{w·j}) mod p`` for window index
    ``j`` and digit ``d``.  An exponentiation multiplies the entries
    its digits point at — no squarings at all, and small exponents
    touch only their few low windows.
    """

    __slots__ = ("p", "q", "base", "window", "flat")

    def __init__(self, p: int, q: int, base: int, window: Optional[int] = None) -> None:
        self.p = p
        self.q = q
        self.base = base % p
        self.window = window if window is not None else _default_window(q.bit_length())
        w = self.window
        flat: List[int] = []
        b_j = self.base  # base^(2^{w·j}), advanced as windows are built
        for _ in range((q.bit_length() + w - 1) // w):
            acc = b_j
            flat.append(1)
            flat.append(acc)
            for _ in range((1 << w) - 2):
                acc = acc * b_j % p
                flat.append(acc)
            b_j = acc * b_j % p  # b_j^(2^w - 1) · b_j = b_j^(2^w)
        self.flat = flat
        FASTEXP_STATS.table_builds += 1

    @property
    def n_windows(self) -> int:
        return len(self.flat) >> self.window

    def fold(self, positions: Sequence[int]) -> int:
        """The product of the entries at ``positions`` (:func:`cut_digits`)."""
        p = self.p
        flat = self.flat
        result = 1
        for i in positions:
            result = result * flat[i] % p
        FASTEXP_STATS.pows += 1
        return result

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p`` with the exponent reduced mod q."""
        return self.fold(cut_digits(exponent % self.q, self.window))

    def small_pow(self, exponent: int) -> int:
        """:meth:`pow`, as a single lookup when the exponent is one digit."""
        if exponent >> self.window == 0:
            return self.flat[exponent]
        return self.pow(exponent)


def pow_bases(tables: Sequence[FixedBaseTable], exponent: int) -> List[int]:
    """Shape 1: ``[t.pow(exponent) for t in tables]``, digits cut once.

    The tables must share a group and a window width (those of
    :func:`fixed_base` over one group do).
    """
    first = tables[0]
    p, window = first.p, first.window
    if any(t.p != p or t.window != window for t in tables):
        raise ValueError("comb tables of different shapes cannot share digits")
    positions = cut_digits(exponent % first.q, window)
    return [table.fold(positions) for table in tables]


class SharedExponents:
    """Shape 2: a set of full-width exponents for one fresh base after another.

    ``SharedExponents(q, es).pows(p, b) == [pow(b, e % q, p) for e in es]``.
    Everything that depends only on the exponents is done here, once;
    :meth:`pows` then pays for one base.  Two ways to share that base's
    squarings, picked by multiplication count from ``len(es)`` and
    ``q.bit_length()``:

    * **sliding windows over one squaring ladder** (below 154 exponents
      at 256 bits, 45 at 64; measured break-even ≈100 and ≈40, within
      10 % either side).  The ladder ``b^(2^i)`` is |q| − 1 squarings.
      Each exponent is cut into odd w-bit windows at whatever bit they
      start.  From the largest window value down, the rungs under the
      windows of value d multiply into a running product ``R``, and
      after each value but 1 ``R`` multiplies into ``T``; then
      ``T² · R = Π_d (Π rungs_d)^d`` — |q|/(w+1) + 2^{w−1} + 1
      multiplications per exponent and no table of multiples.
    * **a throwaway comb table** (beyond that): 2^w − 1 multiples per
      window once, then one multiplication per window per exponent.
    """

    __slots__ = ("q", "window", "_top_bit", "_slides", "_positions")

    def __init__(self, q: int, exponents: Sequence[int]) -> None:
        self.q = q
        qbits = q.bit_length()
        n = len(exponents)
        table_cost, table_window = min(
            ((qbits + w - 1) // w * ((1 << w) - 1 + n), w) for w in range(1, 9)
        )
        slide_cost, slide_window = min(
            (qbits + n * (qbits // (w + 1) + (1 << w - 1) + 1), w)
            for w in range(1, 9)
        )
        reduced = [e % q for e in exponents]
        self._top_bit = max((e.bit_length() for e in reduced), default=0) - 1
        self._slides = self._positions = None
        if slide_cost <= table_cost:
            self.window = slide_window
            self._slides = [
                (values[:-1], values[-1])
                for values in (_odd_windows(e, slide_window) for e in reduced)
            ]
        else:
            self.window = table_window
            self._positions = [cut_digits(e, table_window) for e in reduced]

    def pows(self, p: int, base: int) -> List[int]:
        if self._slides is None:
            fold = FixedBaseTable(p, self.q, base, self.window).fold
            return [fold(positions) for positions in self._positions]
        rung = base % p
        ladder = [rung]
        for _ in range(self._top_bit):
            rung = rung * rung % p
            ladder.append(rung)
        out = []
        for larger, ones in self._slides:
            running = total = 1
            for rungs in larger:
                for i in rungs:
                    running = running * ladder[i] % p
                total = total * running % p
            for i in ones:
                running = running * ladder[i] % p
            out.append(total * total % p * running % p)
        return out


def _odd_windows(exponent: int, window: int) -> List[List[int]]:
    """The bit offsets of the odd ``window``-bit windows of ``exponent``,
    one list per window value, largest value (2^w − 1) first, 1 last."""
    mask = (1 << window) - 1
    by_value: List[List[int]] = [[] for _ in range(1 << window - 1)]
    offset = 0
    while exponent:
        zeros = (exponent & -exponent).bit_length() - 1
        offset += zeros
        exponent >>= zeros
        by_value[(exponent & mask) >> 1].append(offset)
        exponent >>= window
        offset += window
    return by_value[::-1]


class SignedProducts:
    """Shape 3: k vectors of small signed exponents over the same t bases.

    ``numerators[k] / denominators[k] == Π_i bases[i]^{vectors[k][i]}``
    with ``numerators[k] = Π_{s>0} bases[i]^s`` and ``denominators[k] =
    Π_{s<0} bases[i]^{-s}``, so no exponent is ever reduced mod q into
    a full-width one and the caller divides once.  Each base is squared
    up one short ladder, as long as the widest exponent in its column,
    and each rung is multiplied into the accumulator of every vector
    whose exponent has that bit set.  The plan — which rung into which
    accumulator — is made here, once for every base tuple it is
    :meth:`of`.
    """

    __slots__ = ("n_vectors", "_plan")

    def __init__(self, vectors: Sequence[Sequence[int]]) -> None:
        self.n_vectors = len(vectors)
        # per base: the accumulator slots its own value goes into, then
        # one slot list per squaring; slot 2k is vector k's numerator,
        # 2k + 1 its denominator
        self._plan: List[Tuple[List[int], List[List[int]]]] = []
        for column in zip(*vectors):
            width = max(abs(s) for s in column).bit_length()
            rungs = [
                [2 * k + (s < 0) for k, s in enumerate(column) if abs(s) >> bit & 1]
                for bit in range(width)
            ]
            self._plan.append((rungs[0], rungs[1:]) if rungs else ([], []))

    def of(self, p: int, bases: Sequence[int]) -> Tuple[List[int], List[int]]:
        """``(numerators, denominators)`` of the k products over ``bases``."""
        accs = [1] * (2 * self.n_vectors)
        for rung, (first, later) in zip(bases, self._plan):
            for slot in first:
                accs[slot] = accs[slot] * rung % p
            for slots in later:
                rung = rung * rung % p
                for slot in slots:
                    accs[slot] = accs[slot] * rung % p
        return accs[0::2], accs[1::2]


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
    FASTEXP_STATS.batch_inversions += 1
    return out


def fastexp_cache_info() -> Dict[str, int]:
    """Introspection for tests and the telemetry gauge."""
    return {
        "entries": len(_TABLE_CACHE),
        "max_entries": MAX_CACHED_TABLES,
        "windows": sum(t.n_windows for t in _TABLE_CACHE.values()),
    }
