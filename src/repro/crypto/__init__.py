"""Cryptography for the privacy-preserving k-means (Sect. 3.8, App. 10.4).

Implements, from scratch:

* :mod:`repro.crypto.group` — Schnorr groups (prime-order subgroups of
  Z_p* with p a safe prime) where DDH is assumed hard;
* :mod:`repro.crypto.dlog` — baby-step/giant-step discrete logarithm for
  bounded exponents (messages are encrypted "at the exponent", so
  decryption needs a small-range DL);
* :mod:`repro.crypto.elgamal` — the additively homomorphic, vector-key
  variant of ElGamal the paper builds on;
* :mod:`repro.crypto.fe` — the inner-product functional encryption of
  Abdalla et al. [13] (function keys for dot products);
* :mod:`repro.crypto.fastexp` — exponentiation in the three batch
  shapes the protocol issues (one exponent × many fixed bases over comb
  tables, one fresh base × many exponents, many bases × small signed
  exponents) and Montgomery batch inversion, the one arithmetic under
  everything above (the textbook formulas it must match bit for bit
  are the test oracle ``tests/oracles/crypto_naive.py``);
* :mod:`repro.crypto.secure_kmeans` — the Coordinator/Aggregator
  two-phase clustering protocol with additive masking, so the
  Coordinator learns only centroids and cluster cardinalities while the
  Aggregator learns only the client→cluster mapping and distances.

``fastexp`` and ``dlog`` cache tables every scheme object in the
process shares, so they count their work in plain ints
(``FASTEXP_STATS``, ``DLOG_STATS``); a round runner
(:func:`run_secure_kmeans`, ``PriceSheriff.run_doppelganger_clustering``)
adds what those grew by during its round to its own ``sheriff_crypto_*``
series (:func:`~repro.crypto.secure_kmeans.crypto_round`).  The protocol
parties take the deployment's telemetry when they are built and record
the per-phase latencies themselves.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".group": ["BENCH_GROUP_256", "RFC3526_GROUP_2048", "SchnorrGroup", "TEST_GROUP"],
    ".fastexp": [
        "FixedBaseTable", "batch_invert", "fastexp_cache_info",
    ],
    ".dlog": [
        "DiscreteLogError", "discrete_log", "dlog_cache_info",
    ],
    ".elgamal": ["Ciphertext", "VectorElGamal"],
    ".fe": ["InnerProductFE"],
    ".secure_kmeans": [
        "KMeansAggregator", "KMeansCoordinator", "ProfileClient", "SecureKMeansResult",
        "WorkerPool", "run_secure_kmeans",
    ],
})
