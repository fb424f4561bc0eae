"""Telemetry bindings for the crypto layer (``sheriff_crypto_*``).

The crypto modules keep module-level instrument slots that default to
``None`` (the same null-twin discipline as the rest of the system:
unbound means zero-cost, and instruments never perturb determinism).
:func:`bind_crypto_telemetry` declares the instruments on a deployment's
registry and hands them to :mod:`repro.crypto.fastexp` and
:mod:`repro.crypto.dlog`; the per-phase latency histogram lives on the
protocol parties themselves (``KMeansCoordinator.bind_telemetry`` /
``KMeansAggregator.bind_telemetry``).

Caveat for ``n_workers > 1``: forked pool workers inherit the bound
instruments but increment their own copies — the parent's counters see
only parent-side work.  Phase histograms are recorded parent-side and
therefore always complete.
"""

from __future__ import annotations

from repro.crypto import dlog, fastexp


def bind_crypto_telemetry(telemetry) -> None:
    """Register the ``sheriff_crypto_*`` instruments and attach them."""
    registry = telemetry.registry
    fastexp.bind_instruments(
        pows=registry.counter(
            "sheriff_crypto_fastexp_pows_total",
            "Exponentiations served by fixed-base comb tables",
        ),
        builds=registry.counter(
            "sheriff_crypto_fastexp_table_builds_total",
            "Comb table precomputations (cached and throwaway)",
        ),
        tables=registry.gauge(
            "sheriff_crypto_fastexp_tables",
            "Fixed-base comb tables currently in the LRU cache",
        ),
        batch_inversions=registry.counter(
            "sheriff_crypto_batch_inversions_total",
            "Montgomery batch-inversion passes",
        ),
    )
    dlog.bind_instruments(
        cache=registry.gauge(
            "sheriff_crypto_dlog_cache",
            "Baby-step tables currently in the BSGS LRU cache",
        ),
        calls=registry.counter(
            "sheriff_crypto_dlog_calls_total",
            "Bounded discrete-log computations",
        ),
        evictions=registry.counter(
            "sheriff_crypto_dlog_cache_evictions_total",
            "Baby-step tables evicted by the LRU size cap",
        ),
    )


def unbind_crypto_telemetry() -> None:
    """Detach all crypto instruments (tests and benchmark hygiene)."""
    fastexp.bind_instruments()
    dlog.bind_instruments()
