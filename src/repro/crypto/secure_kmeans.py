"""Privacy-preserving k-means between the Coordinator and the Aggregator.

Protocol of Sect. 3.8 / App. 10.4.  Roles and what each one learns:

* **ProfileClient** — owns a private browsing-profile point
  ``a = (a_1 … a_m)`` with integer coordinates in ``[0, Q]``.  It encrypts
  ``c = (Σ a_i², 1, a_1, …, a_m)`` under the Coordinator's public keys,
  hands the ciphertext to the Aggregator, and goes offline.
* **KMeansCoordinator** — holds the ``t = m + 2`` ElGamal secret keys and
  the cluster centroids.  It learns the centroids (that is the point:
  they become the doppelganger profiles) and the cluster cardinalities,
  but never a client point nor the client→cluster mapping.
* **KMeansAggregator** — holds the encrypted client points.  It learns
  the squared distance between every client and every centroid (hence
  the mapping) but neither the points nor the centroids.

**Distance phase** (Fig. 17).  For centroid ``b`` the Coordinator's
private function vector is ``s = (1, Σ b_i², −2·b_1, …, −2·b_m)`` so that
``⟨c, s⟩ = Σa² + Σb² − 2Σab = d²(a, b)``.  To keep the Coordinator from
learning ``d²``, the Aggregator first re-randomizes the ciphertext and
homomorphically adds a random mask ν to the *first* coordinate; since
``s_1 = 1`` for every centroid, the Coordinator's evaluation returns
``g^{d² + ν}``, which only the Aggregator can unmask and discrete-log.

**Centroid-update phase** (Fig. 18).  The Aggregator multiplies the
ciphertexts of a cluster's members component-wise over positions
``[3, t]`` (the raw coordinates) and forwards the aggregate plus the
cardinality; the Coordinator decrypts the dimension-wise sums, divides
by the cardinality, and re-quantizes to integers.

Halting: iteration stops when the fraction of clients whose cluster
changed falls below ``halt_threshold`` (observed by the Aggregator), or
after ``max_iterations``.

The heavy group arithmetic is parallelizable (Fig. 8(c) compares 1 vs 4
workers); ``n_workers > 1`` fans the per-client work out to worker
*processes* — each inside the boundary of the party doing the work, so
parallelism never moves private data across roles.  Each party owns a
persistent, lazily-started fork pool (:class:`WorkerPool`): workers are
forked once, inherit the fixed-base exponentiation tables and BSGS
contexts copy-on-write, and survive across phases and iterations, so a
multi-iteration run no longer pays pool startup per phase per iteration.
Both parties are context managers; ``close()`` (or ``with``) shuts the
pools down deterministically.  Pools only ever start inside
:func:`iterate_until_stable` — the one assign → aggregate → update loop,
shared by :func:`run_secure_kmeans` and
``repro.core.aggregator.Aggregator.run_clustering`` — which closes both
parties' pools on the way out, so no caller leaks forked children.

The arithmetic (bit-for-bit and RNG-draw-for-draw identical to the
textbook protocol kept as ``tests/oracles/crypto_naive.py``):

* every exponentiation is issued in one of the three batch shapes of
  :mod:`repro.crypto.fastexp`: ``g`` and the ``h_i`` to one fresh ``r``
  (encrypt, mask), one masked ``α`` to the k function keys (distance)
  or one aggregate's ``α`` to the secret keys (update), and the
  ``β_i`` of one ciphertext to the k centroid function vectors
  (distance);
* the mask is a cheap re-randomization — ``α·g^r``, ``β_i·h_i^r``,
  ``β_1·g^ν`` — instead of a full encryption of a mostly-zero vector,
  and its ``g^ν`` is the element the unmasking inverts: computed once;
* the per-client ``g^ν`` unmask factors are inverted together with one
  Montgomery batch inversion instead of one ``pow(·, -1, p)`` each.

A peer whose ciphertext is well-formed but decrypts to nothing within
the agreed bounds (random group elements, a profile outside
``[0, Q]``) fails its own distance dlogs and is dropped from the round
there — from the assignments, from every later aggregate and from the
mapping — after ``bound // stride + 1`` giant steps per centroid.  It
costs its sender a cluster, not everyone else the round.  A peer only
*slightly* out of range passes the distance phase and can still push
its cluster's coordinate sum out of the update phase's bound; that
cluster keeps its previous centroid for the iteration
(``KMeansCoordinator.centroids_kept``), and the round goes on.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto import dlog as _dlog
from repro.crypto import fastexp
from repro.crypto.dlog import DiscreteLogError, discrete_log
from repro.crypto.elgamal import Ciphertext, VectorElGamal
from repro.crypto.fe import InnerProductFE
from repro.crypto.group import SchnorrGroup, TEST_GROUP
from repro.obs import NULL_TELEMETRY


def profile_to_plaintext(point: Sequence[int]) -> List[int]:
    """Build the encoded vector c = (Σ a_i², 1, a_1, …, a_m)."""
    return [sum(a * a for a in point), 1, *point]


def centroid_function_vector(centroid: Sequence[int]) -> List[int]:
    """Build the function vector s = (1, Σ b_i², −2 b_1, …, −2 b_m)."""
    return [1, sum(b * b for b in centroid), *(-2 * b for b in centroid)]


class WorkerPool:
    """A persistent, lazily-started fork pool owned by one party.

    The previous implementation spawned a fresh ``multiprocessing.Pool``
    inside every parallel phase — twice per k-means iteration — so
    multi-iteration runs spent a fixed fork+teardown tax per phase.
    This pool forks its workers on first use and keeps them until
    :meth:`close`; because the start method is ``fork``, workers inherit
    every fixed-base comb table and BSGS baby-step table the parent
    built before that first use, copy-on-write and for free.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._pool = None

    @property
    def started(self) -> bool:
        return self._pool is not None

    def map(self, fn, args: Sequence) -> list:
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork").Pool(self.n_workers)
        return self._pool.map(fn, args)

    def close(self) -> None:
        """Shut the workers down and reap them (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProfileClient:
    """A PPC that contributes its encrypted browsing profile."""

    def __init__(self, client_id: str, point: Sequence[int], value_bound: int) -> None:
        if any(a < 0 or a > value_bound for a in point):
            raise ValueError(f"profile coordinates must lie in [0, {value_bound}]")
        self.client_id = client_id
        self._point = list(point)
        self.value_bound = value_bound

    @property
    def dimensions(self) -> int:
        return len(self._point)

    def encrypt_profile(
        self,
        scheme: VectorElGamal,
        public_keys: Sequence[int],
        rng: random.Random,
    ) -> Ciphertext:
        """Encrypt and hand over; after this the client can go offline."""
        return scheme.encrypt(public_keys, profile_to_plaintext(self._point), rng)


class KMeansCoordinator:
    """Key holder; learns centroids and cardinalities only."""

    def __init__(
        self,
        group: SchnorrGroup,
        m: int,
        value_bound: int,
        rng: random.Random,
        n_workers: int = 1,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.group = group
        self.m = m
        self.t = m + 2
        self.value_bound = value_bound
        self.n_workers = n_workers
        self.scheme = VectorElGamal(group, self.t)
        self._secret, self.public_keys = self.scheme.keygen(rng)
        self._fe = InnerProductFE(group)
        self.centroids: List[List[int]] = []
        #: centroid updates whose sums did not decrypt within the bound
        #: (the cluster kept its previous centroid that iteration)
        self.centroids_kept = 0
        self.pool = WorkerPool(n_workers)
        self._m_phase = _phase_histogram(telemetry.registry)
        self._m_kept = telemetry.registry.counter(
            "sheriff_crypto_centroids_kept_total",
            "Centroid updates whose sums did not decrypt within the bound "
            "(the cluster kept its previous centroid)",
        )

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool."""
        self.pool.close()

    def __enter__(self) -> "KMeansCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- centroid state -----------------------------------------------------
    def set_centroids(self, centroids: Sequence[Sequence[int]]) -> None:
        for c in centroids:
            if len(c) != self.m:
                raise ValueError("centroid dimensionality mismatch")
        self.centroids = [list(c) for c in centroids]

    @property
    def k(self) -> int:
        return len(self.centroids)

    def _function_data(self) -> Tuple[List[List[int]], List[int]]:
        s_vectors = [centroid_function_vector(b) for b in self.centroids]
        f_keys = [self._fe.function_key(self._secret, s) for s in s_vectors]
        return s_vectors, f_keys

    # -- distance phase (Coordinator side) -------------------------------
    def distance_elements_batch(
        self, masked: Sequence[Tuple[int, int, Tuple[int, ...]]]
    ) -> Dict[int, List[int]]:
        """For each masked ciphertext, return γ_k = g^{d²_k + ν} per centroid.

        ``masked`` is a list of (client_index, α, βs).  The Coordinator
        sees only masked ciphertexts, so the returned elements reveal
        nothing to it.
        """
        started = time.perf_counter()
        shared = (self.group, *self._function_data())
        if self.n_workers <= 1 or len(masked) < 2:
            partials = [_distance_chunk((*shared, list(masked)))]
        else:
            partials = self.pool.map(_distance_chunk, [
                (*shared, chunk)
                for chunk in _split(list(masked), self.n_workers)
                if chunk
            ])
        out: Dict[int, List[int]] = {}
        for partial in partials:
            out.update(partial)
        self._m_phase.observe(time.perf_counter() - started, phase="distance")
        return out

    # -- update phase (Coordinator side) -----------------------------------
    def update_centroid(
        self, cluster_index: int, aggregate: Ciphertext, cardinality: int
    ) -> List[int]:
        """Decrypt the aggregated sums, average, re-quantize, store.

        A member slightly outside ``[0, Q]`` passes the distance phase
        (its bound is ``m·Q²``) but can push a coordinate sum past
        ``cardinality × Q``, where the sum has no discrete log.  An
        aggregate cannot name its culprit, so the cluster keeps its
        previous centroid for this iteration — counted in
        ``centroids_kept`` — and the round goes on.
        """
        if cardinality <= 0:
            return self.centroids[cluster_index]  # empty cluster: keep it
        started = time.perf_counter()
        bound = cardinality * self.value_bound
        try:
            sums = self.scheme.decrypt_components(
                self._secret, aggregate, range(2, self.t), bound
            )
        except DiscreteLogError:
            self.centroids_kept += 1
            self._m_kept.inc()
        else:
            self.centroids[cluster_index] = [
                int(round(s / cardinality)) for s in sums
            ]
        self._m_phase.observe(time.perf_counter() - started, phase="update")
        return self.centroids[cluster_index]


def _is_element(value, p: int) -> bool:
    """Whether an untrusted ciphertext component is a unit of Z_p."""
    return type(value) is int and 0 < value < p


class KMeansAggregator:
    """Holds encrypted points; learns distances and the mapping only."""

    def __init__(
        self,
        group: SchnorrGroup,
        coordinator: KMeansCoordinator,
        rng: random.Random,
        n_workers: int = 1,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.group = group
        self.coordinator = coordinator
        self._rng = rng
        self.n_workers = n_workers
        self.scheme = VectorElGamal(group, coordinator.t)
        self._ciphertexts: Dict[str, Ciphertext] = {}
        self._order: List[str] = []
        self.assignments: Dict[str, int] = {}
        self.pool = WorkerPool(n_workers)
        self._m_phase = _phase_histogram(telemetry.registry)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool."""
        self.pool.close()

    def __enter__(self) -> "KMeansAggregator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- intake ---------------------------------------------------------------
    def submit(self, client_id: str, ciphertext: Ciphertext) -> None:
        """Hold one peer's ciphertext; refuse anything but group elements.

        Ciphertexts come from other users' browsers.  An α or β_i that
        is not an ``int`` in ``[1, p-1]`` (0 has no inverse, a string
        has no arithmetic) would abort the distance phase for every
        peer, so it is turned away here and the round goes on without
        its sender.
        """
        if ciphertext.dimensions != self.coordinator.t:
            raise ValueError("ciphertext dimensionality mismatch")
        p = self.group.p
        if not (_is_element(ciphertext.alpha, p)
                and all(_is_element(beta, p) for beta in ciphertext.betas)):
            raise ValueError(
                f"ciphertext from peer {client_id!r} refused: every "
                "element must be an int in [1, p-1]"
            )
        if client_id not in self._ciphertexts:
            self._order.append(client_id)
        self._ciphertexts[client_id] = ciphertext

    @property
    def n_clients(self) -> int:
        return len(self._ciphertexts)

    # -- distance phase (Aggregator side) -------------------------------------
    def _mask(self, ct: Ciphertext) -> Tuple[Ciphertext, int, int]:
        """Re-randomize and add ν to coordinate 1; returns (masked, ν, g^ν).

        Multiplies the re-randomization straight into the ciphertext
        (``α·g^r``, ``β_i·h_i^r``, ``β_1·g^ν``) through the fixed-base
        tables — 2 + t table exponentiations instead of the textbook's
        full encryption of a mostly-zero mask vector (1 + 2t raw ones).
        Identical output, identical RNG draws (ν then r).  ``g^ν`` is
        handed back because unmasking divides by that same element.
        """
        nu = self.group.random_exponent(self._rng)
        g_nu = self.scheme.gexp(nu)
        masked = self.scheme.rerandomize(
            self.coordinator.public_keys, ct, self._rng
        )
        betas = masked.betas
        masked = Ciphertext(
            alpha=masked.alpha,
            betas=(betas[0] * g_nu % self.group.p, *betas[1:]),
        )
        return masked, nu, g_nu

    def mask_all(self) -> Tuple[List[Tuple[int, int, Tuple[int, ...]]], List[int]]:
        """Mask every held ciphertext; returns (masked batch, g^ν list)."""
        started = time.perf_counter()
        masked_batch: List[Tuple[int, int, Tuple[int, ...]]] = []
        g_nus: List[int] = []
        for idx, client_id in enumerate(self._order):
            masked, _, g_nu = self._mask(self._ciphertexts[client_id])
            masked_batch.append((idx, masked.alpha, masked.betas))
            g_nus.append(g_nu)
        self._m_phase.observe(time.perf_counter() - started, phase="mask")
        return masked_batch, g_nus

    def choose_clusters(
        self, gamma_map: Dict[int, List[int]], g_nus: Sequence[int]
    ) -> Tuple[Dict[str, int], int]:
        """Unmask the γs, discrete-log, pick each client's nearest centroid.

        ``g_nus`` are the mask elements g^ν of :meth:`mask_all`.  A
        client one of whose distances has no discrete log within the
        bound leaves the round here.
        """
        started = time.perf_counter()
        m = self.coordinator.m
        bound = m * self.coordinator.value_bound ** 2
        unmask_factors = fastexp.batch_invert(self.group.p, g_nus)
        unmask_items = [
            (idx, unmask_factors[idx], gamma_map[idx])
            for idx in range(len(self._order))
        ]
        if self.n_workers <= 1 or len(unmask_items) < 2:
            results = _unmask_chunk((self.group, bound, unmask_items))
        else:
            # build the BSGS context in the parent before the workers
            # fork so every worker inherits it copy-on-write
            if not self.pool.started:
                _dlog.prewarm(self.group, bound)
            chunks = _split(unmask_items, self.n_workers)
            args = [(self.group, bound, chunk) for chunk in chunks if chunk]
            results = []
            for partial in self.pool.map(_unmask_chunk, args):
                results.extend(partial)

        changed = 0
        new_assignments: Dict[str, int] = {}
        undecryptable: List[str] = []
        for idx, cluster in results:
            client_id = self._order[idx]
            if cluster is None:
                undecryptable.append(client_id)
                continue
            new_assignments[client_id] = cluster
            if self.assignments.get(client_id) != cluster:
                changed += 1
        for client_id in undecryptable:
            self._order.remove(client_id)
            del self._ciphertexts[client_id]
        self.assignments = new_assignments
        self._m_phase.observe(time.perf_counter() - started, phase="unmask")
        return dict(new_assignments), changed

    def assign_all(self) -> Tuple[Dict[str, int], int]:
        """One client→cluster mapping pass; returns (mapping, n_changed)."""
        masked_batch, g_nus = self.mask_all()
        gamma_map = self.coordinator.distance_elements_batch(masked_batch)
        return self.choose_clusters(gamma_map, g_nus)

    # -- update phase (Aggregator side) ---------------------------------------
    def aggregate_clusters(self) -> Dict[int, Tuple[Ciphertext, int]]:
        """Homomorphically sum each cluster's ciphertexts."""
        started = time.perf_counter()
        groups: Dict[int, List[Ciphertext]] = {}
        for client_id, cluster in self.assignments.items():
            groups.setdefault(cluster, []).append(self._ciphertexts[client_id])
        out = {
            cluster: (self.scheme.add_many(cts), len(cts))
            for cluster, cts in groups.items()
        }
        self._m_phase.observe(time.perf_counter() - started, phase="aggregate")
        return out


# -- worker functions (module level so they fork+pickle cleanly) -----------

def _split(items: list, n: int) -> List[list]:
    size = max(1, (len(items) + n - 1) // n)
    return [items[i: i + size] for i in range(0, len(items), size)]


def _distance_chunk(args) -> List[Tuple[int, List[int]]]:
    group, s_vectors, f_keys, chunk = args
    fe = InnerProductFE(group)
    cts = [Ciphertext(alpha=alpha, betas=tuple(betas)) for _, alpha, betas in chunk]
    gammas = fe.eval_elements_batch(cts, s_vectors, f_keys)
    return [(idx, gamma) for (idx, _, _), gamma in zip(chunk, gammas)]


def _unmask_chunk(args) -> List[Tuple[int, Optional[int]]]:
    """(client index, nearest cluster) per client; the cluster is
    ``None`` when one of the client's distances is not within ``bound``."""
    group, bound, chunk = args
    p = group.p
    out = []
    for idx, g_nu_inv, gammas in chunk:
        try:
            distances = [
                discrete_log(group, gamma * g_nu_inv % p, bound)
                for gamma in gammas
            ]
            nearest = distances.index(min(distances))
        except DiscreteLogError:
            nearest = None
        out.append((idx, nearest))
    return out


def _phase_histogram(registry):
    """The shared per-phase latency histogram (one per registry)."""
    return registry.histogram(
        "sheriff_crypto_phase_seconds",
        "Wall-clock seconds per secure k-means protocol phase",
        labelnames=("phase",),
        buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                 30.0, 60.0, 120.0),
    )


@contextmanager
def crypto_round(telemetry) -> Iterator[None]:
    """Count one round's exponentiation and discrete-log work into
    ``telemetry``.

    :mod:`~repro.crypto.fastexp` and :mod:`~repro.crypto.dlog` keep
    process-wide plain-int counts; what they grew by inside the block
    goes to the ``sheriff_crypto_*`` counters of ``telemetry``, and the
    two table-cache gauges are set from the caches as the block leaves
    them.  Forked pool workers count into their own copies, so only
    parent-side work is seen; the phase histograms are recorded
    parent-side and are complete.
    """
    registry = telemetry.registry
    fastexp_counters = {
        "pows": registry.counter(
            "sheriff_crypto_fastexp_pows_total",
            "Exponentiations served by fixed-base comb tables",
        ),
        "table_builds": registry.counter(
            "sheriff_crypto_fastexp_table_builds_total",
            "Comb table precomputations (cached and throwaway)",
        ),
        "batch_inversions": registry.counter(
            "sheriff_crypto_batch_inversions_total",
            "Montgomery batch-inversion passes",
        ),
    }
    dlog_counters = {
        "calls": registry.counter(
            "sheriff_crypto_dlog_calls_total",
            "Bounded discrete-log computations",
        ),
        "evictions": registry.counter(
            "sheriff_crypto_dlog_cache_evictions_total",
            "Baby-step tables evicted by the LRU size cap",
        ),
    }
    tables = registry.gauge(
        "sheriff_crypto_fastexp_tables",
        "Fixed-base comb tables currently in the LRU cache",
    )
    dlog_tables = registry.gauge(
        "sheriff_crypto_dlog_cache",
        "Baby-step tables currently in the BSGS LRU cache",
    )
    fastexp_before = fastexp.FASTEXP_STATS.snapshot()
    dlog_before = _dlog.DLOG_STATS.snapshot()
    try:
        yield
    finally:
        fastexp.FASTEXP_STATS.add_since(fastexp_before, fastexp_counters)
        _dlog.DLOG_STATS.add_since(dlog_before, dlog_counters)
        tables.set(fastexp.fastexp_cache_info()["entries"])
        dlog_tables.set(_dlog.dlog_cache_info()["entries"])


# -- the protocol loop ---------------------------------------------------------

def iterate_until_stable(
    aggregator: KMeansAggregator,
    halt_threshold: float,
    max_iterations: int,
) -> Tuple[bool, List[float]]:
    """Assign → aggregate → update until the mapping stabilizes.

    The one home of the two-phase loop: stops once the fraction of
    clients whose cluster changed is at most ``halt_threshold``, or
    after ``max_iterations``.  Returns ``(converged, seconds per
    iteration)``; assignments and centroids are left on the two parties.
    Both parties' worker pools are shut down on the way out, whether the
    loop finished or raised.
    """
    coordinator = aggregator.coordinator
    iteration_seconds: List[float] = []
    converged = False
    try:
        for _ in range(max_iterations):
            started = time.perf_counter()
            _, changed = aggregator.assign_all()
            for cluster, (aggregate, cardinality) in aggregator.aggregate_clusters().items():
                coordinator.update_centroid(cluster, aggregate, cardinality)
            iteration_seconds.append(time.perf_counter() - started)
            if not aggregator.n_clients:
                break  # every peer was dropped as undecryptable
            if changed / aggregator.n_clients <= halt_threshold:
                converged = True
                break
    finally:
        aggregator.close()
        coordinator.close()
    return converged, iteration_seconds


# -- top-level driver --------------------------------------------------------

@dataclass
class SecureKMeansResult:
    """Outcome of a full secure clustering run."""

    centroids: List[List[int]]
    assignments: Dict[str, int]
    iterations: int
    converged: bool
    iteration_seconds: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.iteration_seconds)


def run_secure_kmeans(
    points: Dict[str, Sequence[int]],
    k: int,
    value_bound: int = 100,
    group: Optional[SchnorrGroup] = None,
    rng: Optional[random.Random] = None,
    initial_centroids: Optional[Sequence[Sequence[int]]] = None,
    halt_threshold: float = 0.02,
    max_iterations: int = 15,
    n_workers: int = 1,
    telemetry=NULL_TELEMETRY,
) -> SecureKMeansResult:
    """Run the full protocol over a set of client profiles.

    ``points`` maps client id → integer profile vector (all the same
    length, coordinates in [0, value_bound]).  Initial centroids default
    to a deterministic sample of the client points — chosen by the
    Aggregator's RNG, mirroring a Forgy initialization.

    Pass a :class:`repro.obs.Telemetry` to record the ``sheriff_crypto_*``
    counters and per-phase latency histograms of the run.
    """
    if not points:
        raise ValueError("no client points")
    if k < 1:
        raise ValueError("k must be positive")
    group = group if group is not None else TEST_GROUP
    rng = rng if rng is not None else random.Random(2017)
    dims = {len(v) for v in points.values()}
    if len(dims) != 1:
        raise ValueError("all profiles must share a dimensionality")
    m = dims.pop()

    coordinator = KMeansCoordinator(group, m=m, value_bound=value_bound, rng=rng,
                                    n_workers=n_workers, telemetry=telemetry)
    aggregator = KMeansAggregator(group, coordinator, rng=rng,
                                  n_workers=n_workers, telemetry=telemetry)
    with crypto_round(telemetry):
        # Clients encrypt and go offline.
        encrypt_started = time.perf_counter()
        for client_id, point in points.items():
            client = ProfileClient(client_id, point, value_bound)
            aggregator.submit(
                client_id, client.encrypt_profile(coordinator.scheme,
                                                  coordinator.public_keys, rng)
            )
        _phase_histogram(telemetry.registry).observe(
            time.perf_counter() - encrypt_started, phase="encrypt"
        )

        if initial_centroids is None:
            ids = sorted(points)
            chosen = rng.sample(ids, min(k, len(ids)))
            initial_centroids = [list(points[c]) for c in chosen]
            while len(initial_centroids) < k:
                initial_centroids.append(list(points[rng.choice(ids)]))
        coordinator.set_centroids(initial_centroids)

        converged, iteration_seconds = iterate_until_stable(
            aggregator, halt_threshold, max_iterations
        )
    return SecureKMeansResult(
        centroids=[list(c) for c in coordinator.centroids],
        assignments=dict(aggregator.assignments),
        iterations=len(iteration_seconds),
        converged=converged,
        iteration_seconds=iteration_seconds,
    )
