"""Tests for bounded baby-step/giant-step discrete logs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dlog as dlog_module
from repro.crypto import elgamal, secure_kmeans
from repro.crypto.dlog import (
    DiscreteLogError,
    clear_dlog_cache,
    discrete_log,
    dlog_cache_info,
    prewarm,
)
from repro.crypto.group import TEST_GROUP


class TestDiscreteLog:
    def test_zero(self):
        assert discrete_log(TEST_GROUP, 1, bound=10) == 0

    def test_small_values(self):
        for x in (1, 2, 17, 99, 100):
            assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(x), bound=100) == x

    def test_exact_bound(self):
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(1000), bound=1000) == 1000

    def test_out_of_bound_raises(self):
        element = TEST_GROUP.gexp(500)
        with pytest.raises(DiscreteLogError):
            discrete_log(TEST_GROUP, element, bound=100)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            discrete_log(TEST_GROUP, 1, bound=-1)

    def test_large_bound(self):
        x = 123_456
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(x), bound=1_000_000) == x

    def test_cache_cleared(self):
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(5), bound=100)
        clear_dlog_cache()
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(5), bound=100) == 5

    @given(x=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, x):
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(x), bound=50_000) == x

    def test_just_past_bound_raises(self):
        # regression: the giant-step loop used to run one extra stride,
        # so this was only caught by the x <= bound guard
        for bound in (1, 99, 100, 1024):
            element = TEST_GROUP.gexp(bound + 1)
            with pytest.raises(DiscreteLogError):
                discrete_log(TEST_GROUP, element, bound=bound)

    @given(bound=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50, deadline=None)
    def test_boundary_property(self, bound):
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(bound), bound=bound) == bound
        with pytest.raises(DiscreteLogError):
            discrete_log(TEST_GROUP, TEST_GROUP.gexp(bound + 1), bound=bound)


class TestCache:
    def setup_method(self):
        clear_dlog_cache()

    def teardown_method(self):
        clear_dlog_cache()

    def test_prewarm_populates_cache(self):
        assert dlog_cache_info()["entries"] == 0
        prewarm(TEST_GROUP, bound=10_000)
        assert dlog_cache_info()["entries"] == 1
        # the subsequent discrete_log reuses the prewarmed entry
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(123), bound=10_000)
        assert dlog_cache_info()["entries"] == 1

    def test_bounds_up_to_floor_squared_share_one_table(self):
        floor = dlog_module.BABY_STEPS_FLOOR
        for bound in (0, 10, 4_800, 160_000, floor * floor):
            discrete_log(TEST_GROUP, TEST_GROUP.gexp(min(bound, 7)), bound=bound)
        assert dlog_cache_info()["entries"] == 1
        ((_, _, stride),) = dlog_module._TABLE_CACHE
        assert stride == floor

    def test_lru_cap_evicts_oldest(self, monkeypatch):
        # only bounds above floor² get a table of their own, so that is
        # where the cap bites; a small floor keeps those tables small
        monkeypatch.setattr(dlog_module, "BABY_STEPS_FLOOR", 8)
        monkeypatch.setattr(dlog_module, "MAX_CACHED_TABLES", 3)
        bounds = [100, 400, 900, 1600, 2500]  # distinct strides 10 … 50
        for bound in bounds:
            discrete_log(TEST_GROUP, TEST_GROUP.gexp(7), bound=bound)
        assert dlog_cache_info()["entries"] == 3
        assert [key[2] for key in dlog_module._TABLE_CACHE] == [30, 40, 50]
        # evicted entries are rebuilt transparently
        assert discrete_log(TEST_GROUP, TEST_GROUP.gexp(7), bound=100) == 7

    def test_failed_search_is_bounded_by_the_giant_steps(self):
        """What a dropped peer costs: ``bound // stride + 1`` table
        lookups per distance, however far outside the bound it lies."""

        class CountingTable(dict):
            lookups = 0

            def get(self, key, default=None):
                CountingTable.lookups += 1
                return super().get(key, default)

        stray = TEST_GROUP.gexp(TEST_GROUP.q // 3)
        for bound in (300, 160_000, 50_000_000):
            prewarm(TEST_GROUP, bound)
            entry = next(reversed(dlog_module._TABLE_CACHE.values()))
            entry.table = CountingTable(entry.table)
            stride = next(reversed(dlog_module._TABLE_CACHE))[2]
            CountingTable.lookups = 0
            with pytest.raises(DiscreteLogError):
                discrete_log(TEST_GROUP, stray, bound=bound)
            assert CountingTable.lookups == bound // stride + 1

    def test_forty_rounds_leave_a_handful_of_tables(self, monkeypatch):
        """Cluster cardinalities change from round to round and each one
        is a decrypt bound (cardinality × Q); keyed per bound that was a
        table each — 32 LRU entries of up to √bound elements, +9 % peak
        RSS on ``cluster_round`` once the floor made them 4096 wide."""
        bounds = set()

        def spy(group, element, bound):
            bounds.add(bound)
            return discrete_log(group, element, bound)

        monkeypatch.setattr(elgamal, "discrete_log", spy)
        monkeypatch.setattr(secure_kmeans, "discrete_log", spy)
        for seed in range(40):
            rng = random.Random(seed)
            points = {
                f"u{i}": [rng.randint(0, 20) for _ in range(4)]
                for i in range(6 + seed % 15)
            }
            secure_kmeans.run_secure_kmeans(
                points, k=2 + seed % 3, value_bound=20, rng=rng, max_iterations=3
            )
        assert len(bounds) >= 12  # many bounds …
        assert dlog_cache_info()["entries"] == 1  # … one table

    def test_giant_stride_cached_per_entry(self):
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(50), bound=10_000)
        (entry,) = dlog_module._TABLE_CACHE.values()
        # the cache key carries the stride m; the entry pins g^{-m}
        key = next(iter(dlog_module._TABLE_CACHE))
        stride = key[2]
        assert entry.giant == TEST_GROUP.inv(TEST_GROUP.gexp(stride))

    def test_eviction_metric_fires(self, monkeypatch):
        monkeypatch.setattr(dlog_module, "MAX_CACHED_TABLES", 1)
        floor = dlog_module.BABY_STEPS_FLOOR
        evictions = dlog_module.DLOG_STATS.evictions
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(3), bound=100)
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(3), bound=10_000)
        assert dlog_module.DLOG_STATS.evictions == evictions  # same table
        discrete_log(TEST_GROUP, TEST_GROUP.gexp(3), bound=4 * floor * floor)
        assert dlog_module.DLOG_STATS.evictions == evictions + 1
