"""Lockstep proof: the crypto layer is bit-identical to the textbook.

``src/repro/crypto/`` has one arithmetic — comb tables, sign-split FE
evaluation, batch inversion, re-randomization masks.  The textbook
formulas it replaced live in ``tests/oracles/crypto_naive.py``, written
against raw ``pow`` only.  For a fixed seed both must produce
byte-identical keys and ciphertexts, identical assignments and
centroids, and — the strictest check — consume the random stream
draw-for-draw, so a peer running the textbook can never diverge from one
running this code.  Worker pools must not perturb any of this, and must
leave no stray child processes behind.
"""

import inspect
import multiprocessing
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregator import Aggregator
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.crypto import dlog, fastexp
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.fe import InnerProductFE
from repro.crypto.group import BENCH_GROUP_256, TEST_GROUP
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
    run_secure_kmeans,
)
from tests.oracles import crypto_naive


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastexp._TABLE_CACHE.clear()
    dlog._TABLE_CACHE.clear()
    yield
    fastexp._TABLE_CACHE.clear()
    dlog._TABLE_CACHE.clear()


def _points(n=14, m=5, bound=20, seed=99):
    rng = random.Random(seed)
    return {
        f"u{i}": [rng.randint(0, bound) for _ in range(m)] for i in range(n)
    }


def test_oracle_shares_no_arithmetic_with_the_layer_it_checks():
    """Nothing in the oracle's namespace comes from fastexp, or from
    dlog (which rides on fastexp), and it never asks for a comb table."""
    for name, value in vars(crypto_naive).items():
        origin = (
            value.__name__ if inspect.ismodule(value)
            else getattr(value, "__module__", "")
        )
        assert origin not in ("repro.crypto.fastexp", "repro.crypto.dlog"), name
    assert "powers_of" not in inspect.getsource(crypto_naive)


class TestSchemeLockstep:
    def test_encrypt_bit_identical_and_same_rng_draws(self):
        plaintext = [3, 1, 0, 17, 4]
        rng = random.Random(42)
        scheme = VectorElGamal(TEST_GROUP, 5)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, plaintext, rng)

        oracle_rng = random.Random(42)
        oracle_keys = crypto_naive.keygen(TEST_GROUP, 5, oracle_rng)
        oracle_ct = crypto_naive.encrypt(
            TEST_GROUP, oracle_keys[1], plaintext, oracle_rng
        )
        assert (secret, public, ct, rng.getstate()) == (
            *oracle_keys, oracle_ct, oracle_rng.getstate()
        )

    def test_rerandomize_equals_add_of_mask_encryption(self):
        rng = random.Random(7)
        scheme = VectorElGamal(TEST_GROUP, 4)
        _, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, [5, 0, 2, 9], rng)

        rng_a = random.Random(13)
        fast = scheme.rerandomize(public, ct, rng_a, add_at={0: 77})

        rng_b = random.Random(13)
        mask = crypto_naive.encrypt(TEST_GROUP, public, [77, 0, 0, 0], rng_b)
        naive = crypto_naive.add(TEST_GROUP, ct, mask)

        assert fast == naive == scheme.add(ct, mask)
        assert rng_a.getstate() == rng_b.getstate()

    def test_fe_eval_matches_naive(self):
        rng = random.Random(5)
        fe = InnerProductFE(TEST_GROUP)
        scheme = VectorElGamal(TEST_GROUP, 6)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, [4, 1, 0, 7, 2, 3], rng)
        s_vectors = [
            [1, 9, -2, 0, -8, 1],
            [1, 0, 0, 0, 0, 0],
            [0, -1, 5, -5, 1, 0],
        ]
        f_keys = [fe.function_key(secret, s) for s in s_vectors]
        assert f_keys == [
            crypto_naive.function_key(TEST_GROUP, secret, s) for s in s_vectors
        ]
        naive = [
            crypto_naive.eval_element(TEST_GROUP, ct, s, f)
            for s, f in zip(s_vectors, f_keys)
        ]
        assert [
            fe.eval_element(ct, s, f) for s, f in zip(s_vectors, f_keys)
        ] == naive
        assert fe.eval_elements(ct, s_vectors, f_keys) == naive

    def test_decrypt_components_matches_naive(self):
        rng = random.Random(11)
        plaintext = [6, 0, 13, 2, 21]
        scheme = VectorElGamal(TEST_GROUP, 5)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, plaintext, rng)
        naive = crypto_naive.decrypt_components(
            TEST_GROUP, secret, ct, range(5), bound=30
        )
        assert scheme.decrypt(secret, ct, bound=30) == naive == plaintext

    @pytest.mark.parametrize("k", [1, 4, 5, 40])
    def test_batch_sizes_on_both_sides_of_the_old_threshold(self, k):
        """``eval_elements`` over k function keys and
        ``decrypt_components`` over k indices share one α each; below 5
        uses that used to mean built-in ``pow``, from 5 a comb table."""
        rng = random.Random(k)
        t = max(k, 3)
        plaintext = [rng.randint(0, 30) for _ in range(t)]
        scheme = VectorElGamal(TEST_GROUP, t)
        fe = InnerProductFE(TEST_GROUP)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, plaintext, rng)
        s_vectors = [[rng.randint(-200, 200) for _ in range(t)] for _ in range(k)]
        f_keys = [fe.function_key(secret, s) for s in s_vectors]
        assert fe.eval_elements(ct, s_vectors, f_keys) == [
            crypto_naive.eval_element(TEST_GROUP, ct, s, f)
            for s, f in zip(s_vectors, f_keys)
        ]
        assert fe.eval_elements_batch([ct, ct], s_vectors, f_keys) == [
            fe.eval_elements(ct, s_vectors, f_keys)
        ] * 2
        indices = list(range(t - k, t))
        assert scheme.decrypt_components(secret, ct, indices, bound=30) == (
            crypto_naive.decrypt_components(TEST_GROUP, secret, ct, indices, bound=30)
        ) == plaintext[t - k:]

    @settings(max_examples=40, deadline=None)
    @given(
        plaintext=st.lists(st.integers(0, 40), min_size=1, max_size=5),
        s_seed=st.integers(0, 2**16),
        n_vectors=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_every_operation_equals_the_textbook(
        self, plaintext, s_seed, n_vectors, seed
    ):
        """encrypt / rerandomize(add_at=) / eval_elements /
        decrypt_components equal the oracle and draw the same numbers."""
        t = len(plaintext)
        s_rng = random.Random(s_seed)
        s_vectors = [
            [s_rng.randint(-9, 9) for _ in range(t)] for _ in range(n_vectors)
        ]
        add_at = {s_rng.randrange(t): s_rng.randint(0, 10**6)}

        rng = random.Random(seed)
        scheme = VectorElGamal(TEST_GROUP, t)
        fe = InnerProductFE(TEST_GROUP)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, plaintext, rng)
        masked = scheme.rerandomize(public, ct, rng, add_at=add_at)
        f_keys = [fe.function_key(secret, s) for s in s_vectors]
        elements = fe.eval_elements(masked, s_vectors, f_keys)
        decrypted = scheme.decrypt_components(secret, ct, range(t), bound=40)

        o_rng = random.Random(seed)
        o_secret, o_public = crypto_naive.keygen(TEST_GROUP, t, o_rng)
        o_ct = crypto_naive.encrypt(TEST_GROUP, o_public, plaintext, o_rng)
        o_masked = crypto_naive.rerandomize(
            TEST_GROUP, o_public, o_ct, o_rng, add_at=add_at
        )
        o_elements = [
            crypto_naive.eval_element(
                TEST_GROUP, o_masked, s,
                crypto_naive.function_key(TEST_GROUP, o_secret, s),
            )
            for s in s_vectors
        ]
        o_decrypted = crypto_naive.decrypt_components(
            TEST_GROUP, o_secret, o_ct, range(t), bound=40
        )

        assert (secret, public, ct, masked) == (o_secret, o_public, o_ct, o_masked)
        assert elements == o_elements
        assert decrypted == o_decrypted == plaintext
        assert rng.getstate() == o_rng.getstate()


class TestProtocolLockstep:
    def _run(self, n_workers=1, rng=None):
        return run_secure_kmeans(
            _points(), k=3, value_bound=20,
            rng=rng if rng is not None else random.Random(2017),
            n_workers=n_workers,
        )

    def _oracle(self, rng=None):
        return crypto_naive.secure_kmeans(
            _points(), k=3, value_bound=20, group=TEST_GROUP,
            rng=rng if rng is not None else random.Random(2017),
        )

    def test_fast_and_naive_agree_exactly(self):
        fast = self._run()
        centroids, assignments, iterations, converged = self._oracle()
        assert assignments == fast.assignments
        assert centroids == fast.centroids
        assert iterations == fast.iterations
        assert converged == fast.converged

    def test_rng_stream_consumed_identically(self):
        rng, oracle_rng = random.Random(2017), random.Random(2017)
        self._run(rng=rng)
        self._oracle(rng=oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()

    def test_worker_pool_does_not_change_results(self):
        single = self._run(n_workers=1)
        rng, oracle_rng = random.Random(2017), random.Random(2017)
        pooled = self._run(n_workers=2, rng=rng)
        centroids, assignments, iterations, _ = self._oracle(rng=oracle_rng)
        assert single.assignments == pooled.assignments == assignments
        assert single.centroids == pooled.centroids == centroids
        assert single.iterations == pooled.iterations == iterations
        assert rng.getstate() == oracle_rng.getstate()


class TestBenchShapedRound:
    """The ``cluster_round`` shape of ``bench/`` — 48 users, m = 16,
    k = 4, three iterations, the pinned 256-bit group — against the
    textbook, so a drifted group element is named here and not later as
    a ``rows_digest`` mismatch."""

    @staticmethod
    def _profiles():
        rng = random.Random(2017)
        return {
            f"u{i:02d}": [
                rng.randint(1, 100) if rng.random() < 0.25 else 0
                for _ in range(16)
            ]
            for i in range(48)
        }

    @pytest.fixture(scope="class")
    def textbook(self):
        rng = random.Random(23)
        return crypto_naive.secure_kmeans(
            self._profiles(), k=4, value_bound=100, group=BENCH_GROUP_256,
            rng=rng, max_iterations=3,
        ), rng.getstate()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equals_the_textbook(self, textbook, n_workers):
        (centroids, assignments, iterations, converged), rng_state = textbook
        rng = random.Random(23)
        result = run_secure_kmeans(
            self._profiles(), k=4, value_bound=100, group=BENCH_GROUP_256,
            rng=rng, max_iterations=3, n_workers=n_workers,
        )
        assert result.assignments == assignments
        assert result.centroids == centroids
        assert (result.iterations, result.converged) == (iterations, converged)
        assert rng.getstate() == rng_state


class TestPoolHygiene:
    def test_run_leaves_no_stray_children(self):
        multiprocessing.active_children()  # reap any leftovers first
        run_secure_kmeans(
            _points(n=8, m=4), k=2, value_bound=20,
            rng=random.Random(1), n_workers=2,
        )
        assert multiprocessing.active_children() == []

    def test_deployment_rounds_leave_no_stray_children(self):
        """``run_doppelganger_clustering`` goes through
        ``Aggregator.run_clustering``, which used to keep its own copy
        of the loop and never closed either party's pool."""
        world = SheriffWorld.create(seed=1)
        sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=[])
        for _ in range(6):
            sheriff.install_addon(world.make_browser("ES", "Madrid"))
        multiprocessing.active_children()  # reap any leftovers first
        for _ in range(2):  # the second round replaces the first's parties
            outcome = sheriff.run_doppelganger_clustering(
                ["news.example", "blog.example"], k=2, max_iterations=2,
                n_workers=2,
            )
            assert len(outcome.mapping) == 6
            assert multiprocessing.active_children() == []

    def test_failed_round_still_reaps_workers(self, monkeypatch):
        rng = random.Random(3)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=4, value_bound=20, rng=rng, n_workers=2
        )
        aggregator = Aggregator(group=TEST_GROUP, rng=rng)
        aggregator.begin_collection(coordinator, n_workers=2)
        for peer_id, point in _points(n=6, m=4).items():
            aggregator.submit_encrypted_profile(
                peer_id,
                ProfileClient(peer_id, point, 20).encrypt_profile(
                    coordinator.scheme, coordinator.public_keys, rng
                ),
            )
        coordinator.set_centroids([[0] * 4, [20] * 4])

        def boom(*args):
            raise RuntimeError("update phase failed")

        monkeypatch.setattr(coordinator, "update_centroid", boom)
        multiprocessing.active_children()
        with pytest.raises(RuntimeError, match="update phase failed"):
            aggregator.run_clustering()
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent_and_reaps_workers(self):
        rng = random.Random(3)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=4, value_bound=20, rng=rng, n_workers=2
        )
        aggregator = KMeansAggregator(
            TEST_GROUP, coordinator, rng=rng, n_workers=2
        )
        # force the pools to actually start
        aggregator.pool.map(_identity, [1, 2, 3])
        coordinator.pool.map(_identity, [4, 5])
        assert aggregator.pool.started and coordinator.pool.started
        aggregator.close()
        coordinator.close()
        aggregator.close()  # second close is a no-op
        assert multiprocessing.active_children() == []
        assert not aggregator.pool.started

    def test_unstarted_pool_close_never_forks(self):
        rng = random.Random(3)
        with KMeansCoordinator(
            TEST_GROUP, m=4, value_bound=20, rng=rng, n_workers=4
        ) as coordinator:
            assert not coordinator.pool.started
        assert multiprocessing.active_children() == []


def _identity(x):
    return x
