"""Tests for fixed-base comb tables and Montgomery batch inversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastexp
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.fastexp import (
    FASTEXP_STATS,
    FixedBaseTable,
    batch_invert,
    cached_table,
    clear_fastexp_cache,
    fastexp_cache_info,
    fixed_base,
)
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_fastexp_cache()
    yield
    clear_fastexp_cache()


class TestFixedBaseTable:
    def test_matches_builtin_pow_for_small_exponents(self):
        table = FixedBaseTable(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        for e in (0, 1, 2, 3, 17, 255, 256, 1 << 20):
            assert table.pow(e) == pow(TEST_GROUP.g, e, TEST_GROUP.p)

    def test_exponent_reduced_mod_q(self):
        table = FixedBaseTable(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        e = TEST_GROUP.q + 12345
        assert table.pow(e) == pow(TEST_GROUP.g, e % TEST_GROUP.q, TEST_GROUP.p)

    @given(
        base=st.integers(min_value=2, max_value=1 << 60),
        e=st.integers(min_value=0, max_value=1 << 70),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_builtin_pow(self, base, e):
        group = TEST_GROUP
        base = pow(base, 2, group.p)  # force into the order-q subgroup
        table = FixedBaseTable(group.p, group.q, base)
        assert table.pow(e) == pow(base, e % group.q, group.p)

    @given(e=st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=5, deadline=None)
    def test_property_matches_builtin_pow_production_group(self, e):
        group = RFC3526_GROUP_2048
        table = fixed_base(group.p, group.q, group.g)  # cached across examples
        assert table.pow(e) == pow(group.g, e % group.q, group.p)

    def test_every_window_width_agrees(self):
        group = TEST_GROUP
        e = 0xDEADBEEFCAFE
        expected = pow(group.g, e % group.q, group.p)
        for w in (1, 4, 8, 16):
            table = FixedBaseTable(group.p, group.q, group.g, window=w)
            assert table.pow(e) == expected


class TestTableCache:
    def test_same_base_returns_same_table(self):
        a = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        b = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert a is b
        assert fastexp_cache_info()["entries"] == 1

    def test_cached_table_peek_does_not_build(self):
        assert cached_table(TEST_GROUP.p, TEST_GROUP.g) is None
        built = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert cached_table(TEST_GROUP.p, TEST_GROUP.g) is built

    def test_lru_cap_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(fastexp, "MAX_CACHED_TABLES", 3)
        group = TEST_GROUP
        bases = [group.gexp(x) for x in (2, 3, 5, 7, 11)]
        for base in bases:
            fixed_base(group.p, group.q, base)
        assert fastexp_cache_info()["entries"] == 3
        # the two oldest fell out, the three newest survive
        assert cached_table(group.p, bases[0]) is None
        assert cached_table(group.p, bases[1]) is None
        for base in bases[2:]:
            assert cached_table(group.p, base) is not None

    def test_lru_touch_on_reuse_protects_entry(self, monkeypatch):
        monkeypatch.setattr(fastexp, "MAX_CACHED_TABLES", 2)
        group = TEST_GROUP
        b1, b2, b3 = (group.gexp(x) for x in (2, 3, 5))
        fixed_base(group.p, group.q, b1)
        fixed_base(group.p, group.q, b2)
        fixed_base(group.p, group.q, b1)  # touch: b1 becomes most recent
        fixed_base(group.p, group.q, b3)  # evicts b2, not b1
        assert cached_table(group.p, b1) is not None
        assert cached_table(group.p, b2) is None


class TestBatchInvert:
    def test_matches_per_element_inversion(self):
        p = TEST_GROUP.p
        values = [TEST_GROUP.gexp(x) for x in range(1, 40)]
        expected = [pow(v, p - 2, p) for v in values]
        assert batch_invert(p, values) == expected

    def test_single_element(self):
        p = TEST_GROUP.p
        assert batch_invert(p, [7]) == [pow(7, p - 2, p)]

    def test_empty(self):
        assert batch_invert(TEST_GROUP.p, []) == []

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            batch_invert(TEST_GROUP.p, [3, 0, 5])

    def test_values_reduced_mod_p(self):
        p = TEST_GROUP.p
        assert batch_invert(p, [p + 3]) == [pow(3, p - 2, p)]

    @given(st.lists(st.integers(min_value=1, max_value=1 << 62), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_inverse_really_inverts(self, values):
        p = TEST_GROUP.p
        values = [v % p or 1 for v in values]
        for v, inv in zip(values, batch_invert(p, values)):
            assert v * inv % p == 1


def _grown(before):
    """How much each plain-int fastexp count grew since ``before``."""
    after = FASTEXP_STATS.snapshot()
    return {name: after[name] - before[name] for name in after}


class TestMetricsBinding:
    def test_counters_fire_when_bound(self):
        before = FASTEXP_STATS.snapshot()
        table = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        table.pow(5)
        table.pow(6)
        batch_invert(TEST_GROUP.p, [3, 5])
        assert _grown(before) == {"pows": 2, "table_builds": 1, "batch_inversions": 1}
        assert fastexp_cache_info()["entries"] == 1

    def test_seeded_round_keeps_the_counters_lit(self):
        """The batch entry points still feed ``sheriff_crypto_fastexp_*``:
        one ``pows`` per comb-table result (t + 1 for an encryption, one
        more for a mask's g^ν, none for a single-digit g^c lookup), one
        ``table_builds`` per table."""
        from repro.crypto import clear_dlog_cache, run_secure_kmeans
        from repro.obs import Telemetry

        clear_dlog_cache()
        rng = random.Random(99)
        n, m, bound = 14, 5, 20
        points = {
            f"u{i}": [rng.randint(0, bound) for _ in range(m)] for i in range(n)
        }
        telemetry = Telemetry()
        result = run_secure_kmeans(
            points, k=3, value_bound=bound, rng=random.Random(2017),
            telemetry=telemetry,
        )
        value = lambda name: telemetry.registry.get(name).value()
        t = m + 2
        digit = 1 << fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g).window
        wide = sum(sum(a * a for a in point) >= digit for point in points.values())
        assert value("sheriff_crypto_fastexp_pows_total") == (
            n * (t + 1) + wide + result.iterations * n * (t + 2)
            + 1  # the giant stride g^m of the one baby-step table
        )
        # g's table predates the round (keygen); the h_i are this run's
        assert value("sheriff_crypto_fastexp_table_builds_total") == t
        assert value("sheriff_crypto_fastexp_tables") == t + 1
        assert value("sheriff_crypto_dlog_cache") == 1
        assert value("sheriff_crypto_dlog_calls_total") > result.iterations * n * 3

    def test_encrypt_counts_one_pow_per_table(self):
        scheme = VectorElGamal(TEST_GROUP, 18)
        _, public = scheme.keygen(random.Random(1))
        before = FASTEXP_STATS.snapshot()
        scheme.encrypt(public, [3] * 18, random.Random(2))
        assert _grown(before)["pows"] == 19
        scheme.rerandomize(public, scheme.encrypt(public, [0] * 18, random.Random(3)),
                           random.Random(4))
        assert _grown(before)["pows"] == 3 * 19

    def test_unbound_is_silent(self):
        table = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert table.pow(5) == TEST_GROUP.gexp(5)
