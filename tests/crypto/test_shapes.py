"""The three batch shapes of ``repro.crypto.fastexp`` against built-in ``pow``.

Nothing here knows the protocol: every expected value is a plain
``pow(b, e % q, p)``.  The lockstep suite checks the same entry points
through the schemes against the textbook oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastexp
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.fastexp import (
    FixedBaseTable,
    SharedExponents,
    SignedProducts,
    clear_fastexp_cache,
    cut_digits,
    fixed_base,
    pow_bases,
)
from repro.crypto.group import BENCH_GROUP_256, RFC3526_GROUP_2048, TEST_GROUP

GROUPS = pytest.mark.parametrize(
    "group", [TEST_GROUP, BENCH_GROUP_256, RFC3526_GROUP_2048],
    ids=["test64", "bench256", "rfc2048"],
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_fastexp_cache()
    yield
    clear_fastexp_cache()


def _elements(group, n, seed=0):
    rng = random.Random(seed)
    return [group.exp(group.g, rng.randrange(1, group.q)) for _ in range(n)]


class TestOneExponentManyBases:
    """Shape 1: ``pow_bases`` and the single-digit lookup."""

    @GROUPS
    def test_edge_exponents(self, group):
        tables = [fixed_base(group.p, group.q, b) for b in [group.g, *_elements(group, 3)]]
        for r in (0, 1, 2, group.q - 1, group.q, group.q + 5, 3 * group.q + 1):
            assert pow_bases(tables, r) == [
                pow(t.base, r % group.q, group.p) for t in tables
            ]

    @given(r=st.integers(min_value=0, max_value=1 << 300), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_property_equals_builtin_pow(self, r, seed):
        for group in (TEST_GROUP, BENCH_GROUP_256):
            tables = [
                FixedBaseTable(group.p, group.q, b)
                for b in _elements(group, 3, seed)
            ]
            assert pow_bases(tables, r) == [
                pow(t.base, r % group.q, group.p) for t in tables
            ]

    def test_one_table_is_its_own_pow(self):
        table = FixedBaseTable(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert pow_bases([table], 0xFEEDFACE) == [table.pow(0xFEEDFACE)]

    def test_tables_of_different_shapes_refused(self):
        g = TEST_GROUP
        with pytest.raises(ValueError, match="different shapes"):
            pow_bases([FixedBaseTable(g.p, g.q, g.g, window=4),
                       FixedBaseTable(g.p, g.q, g.g, window=8)], 5)
        with pytest.raises(ValueError, match="different shapes"):
            pow_bases([FixedBaseTable(g.p, g.q, g.g, window=6),
                       FixedBaseTable(BENCH_GROUP_256.p, BENCH_GROUP_256.q, 4)], 5)

    @GROUPS
    def test_single_digit_exponent_is_a_lookup(self, group):
        table = FixedBaseTable(group.p, group.q, group.g)
        top = 1 << table.window
        for c in (0, 1, 2, top - 1, top, top + 1, -1, -top, group.q + 1):
            folds = fastexp.FASTEXP_STATS.pows
            assert table.small_pow(c) == pow(group.g, c % group.q, group.p), c
            assert fastexp.FASTEXP_STATS.pows - folds == (0 if 0 <= c < top else 1), c

    def test_cut_digits_addresses_the_flat_table(self):
        g = TEST_GROUP
        for window in (1, 3, 8):
            table = FixedBaseTable(g.p, g.q, g.g, window=window)
            for j in range(table.n_windows):
                for d in (1, (1 << window) - 1):
                    (position,) = cut_digits(d << (window * j), window)
                    assert table.flat[position] == pow(g.g, d << (window * j), g.p)
        assert cut_digits(0, 6) == []

    @GROUPS
    @pytest.mark.parametrize("r_of", [lambda q: 1, lambda q: q - 1],
                             ids=["r=1", "r=q-1"])
    def test_encrypt_and_rerandomize_at_edge_draws(self, group, r_of):
        """The scheme on top: α = g^r, β_i = h_i^r · g^{c_i}, with r at
        either end of its range and c on both sides of one comb digit."""

        class OneDraw(random.Random):
            def randrange(self, *args):
                return r_of(group.q)

        p, q, g = group.p, group.q, group.g
        top = 1 << fixed_base(p, q, g).window
        plaintext = [0, 1, top - 1, top, top * top + 3]
        scheme = VectorElGamal(group, len(plaintext))
        _, public = scheme.keygen(random.Random(4))
        r = r_of(q)
        ct = scheme.encrypt(public, plaintext, OneDraw())
        assert ct.alpha == pow(g, r, p)
        assert list(ct.betas) == [
            pow(h, r, p) * pow(g, c, p) % p for h, c in zip(public, plaintext)
        ]
        again = scheme.rerandomize(public, ct, OneDraw(), add_at={1: top})
        assert again.alpha == ct.alpha * pow(g, r, p) % p
        assert list(again.betas) == [
            b * pow(h, r, p) * pow(g, top if i == 1 else 0, p) % p
            for i, (b, h) in enumerate(zip(ct.betas, public))
        ]


class TestOneBaseManyExponents:
    """Shape 2: ``SharedExponents``, on both sides of its choice."""

    @staticmethod
    def _expected(group, base, exponents):
        return [pow(base, e % group.q, group.p) for e in exponents]

    @GROUPS
    @pytest.mark.parametrize("n", [1, 4, 5, 200])
    def test_counts_from_one_to_two_hundred(self, group, n):
        rng = random.Random(n)
        exponents = [rng.randrange(group.q) for _ in range(n)]
        shared = SharedExponents(group.q, exponents)
        for base in _elements(group, 2, seed=n):
            assert shared.pows(group.p, base) == self._expected(group, base, exponents)

    def test_both_strategies_are_exercised(self):
        q = TEST_GROUP.q
        assert SharedExponents(q, [3] * 4)._slides is not None
        assert SharedExponents(q, [3] * 200)._slides is None
        assert SharedExponents(BENCH_GROUP_256.q, [3] * 40)._slides is not None

    @GROUPS
    def test_edge_exponents(self, group):
        q = group.q
        exponents = [0, 1, 2, q - 1, q, q + 1, 5 * q + 7, -1, -q, (1 << 64) - 1]
        base = _elements(group, 1)[0]
        for es in (exponents, exponents * 20):  # sliding, then table
            assert SharedExponents(q, es).pows(group.p, base) == self._expected(
                group, base, es
            )

    def test_all_zero_and_empty(self):
        g = TEST_GROUP
        assert SharedExponents(g.q, [0, 0, g.q]).pows(g.p, g.g) == [1, 1, 1]
        assert SharedExponents(g.q, []).pows(g.p, g.g) == []

    def test_base_outside_the_subgroup(self):
        """Any unit of Z_p, not only a quadratic residue."""
        g = BENCH_GROUP_256
        for base in (1, 2, 3, g.p - 1, g.p - 2):
            for es in ([g.q - 1, 12345, 0], [g.q - 1, 12345, 0] * 60):
                assert SharedExponents(g.q, es).pows(g.p, base) == self._expected(
                    g, base, es
                )

    @given(
        exponents=st.lists(st.integers(min_value=0, max_value=1 << 270),
                           min_size=1, max_size=12),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equals_builtin_pow(self, exponents, seed):
        for group in (TEST_GROUP, BENCH_GROUP_256):
            (base,) = _elements(group, 1, seed)
            assert SharedExponents(group.q, exponents).pows(group.p, base) == (
                self._expected(group, base, exponents)
            )

    @given(
        exponents=st.lists(st.integers(min_value=0, max_value=1 << 70),
                           min_size=60, max_size=90),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_table_side(self, exponents, seed):
        group = TEST_GROUP
        shared = SharedExponents(group.q, exponents)
        assert shared._slides is None
        (base,) = _elements(group, 1, seed)
        assert shared.pows(group.p, base) == self._expected(group, base, exponents)


class TestManyBasesSmallSignedExponents:
    """Shape 3: ``SignedProducts``."""

    @staticmethod
    def _check(group, vectors, bases):
        p, q = group.p, group.q
        nums, dens = SignedProducts(vectors).of(p, bases)
        assert len(nums) == len(dens) == len(vectors)
        for vector, num, den in zip(vectors, nums, dens):
            expected_num = expected_den = product = 1
            for base, s in zip(bases, vector):
                product = product * pow(base, s % q, p) % p
                if s > 0:
                    expected_num = expected_num * pow(base, s, p) % p
                elif s < 0:
                    expected_den = expected_den * pow(base, -s, p) % p
            assert (num, den) == (expected_num, expected_den)
            assert num * pow(den, -1, p) % p == product

    @GROUPS
    def test_named_cases(self, group):
        bases = _elements(group, 5)
        cases = {
            "zero column": [[3, 0, -2, 0, 7], [1, 0, 4, 0, -9]],
            "all-zero vectors": [[0] * 5, [0] * 5],
            "one zero vector": [[0] * 5, [1, -1, 1, -1, 1]],
            "plus and minus one": [[1, -1, 1, -1, 1], [-1, 1, -1, 1, -1]],
            "mixed signs": [[200, -200, 160_000, -1, 0], [-7, 7, -65_535, 65_536, 3]],
            "k = 1": [[1, 12_345, -2, -200, 0]],
            "same column, opposite signs": [[5, 0, 0, 0, 0], [-5, 0, 0, 0, 0]],
            "wider than the group": [[group.q + 3, -(group.q + 3), 0, 1, -1]],
        }
        for name, vectors in cases.items():
            self._check(group, vectors, bases)

    def test_no_vectors(self):
        assert SignedProducts([]).of(TEST_GROUP.p, [4, 9]) == ([], [])

    def test_plan_is_reusable_across_base_tuples(self):
        group = BENCH_GROUP_256
        vectors = [[1, 900, -14, 0, -200], [1, 0, 0, -2, -64]]
        plan = SignedProducts(vectors)
        for seed in range(3):
            bases = _elements(group, 5, seed)
            assert plan.of(group.p, bases) == SignedProducts(vectors).of(group.p, bases)
            self._check(group, vectors, bases)

    @given(
        data=st.data(),
        k=st.integers(1, 5),
        t=st.integers(1, 6),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_builtin_pow(self, data, k, t, seed):
        entry = st.one_of(
            st.just(0), st.sampled_from([1, -1]),
            st.integers(-250, 250), st.integers(-200_000, 200_000),
        )
        vectors = data.draw(
            st.lists(st.lists(entry, min_size=t, max_size=t), min_size=k, max_size=k)
        )
        for group in (TEST_GROUP, BENCH_GROUP_256):
            self._check(group, vectors, _elements(group, t, seed))
