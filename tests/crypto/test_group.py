"""Tests for Schnorr group parameters."""

import random

import pytest

from repro.crypto.group import (
    BENCH_GROUP_256,
    RFC3526_GROUP_2048,
    SchnorrGroup,
    TEST_GROUP,
    is_probable_prime,
)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 101):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 91, 561, 1105):  # incl. Carmichael numbers
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(2**61 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime(2**67 - 1)  # famously composite


class TestGroupStructure:
    def test_test_group_is_safe(self):
        assert TEST_GROUP.p == 2 * TEST_GROUP.q + 1
        assert is_probable_prime(TEST_GROUP.p)
        assert is_probable_prime(TEST_GROUP.q)

    def test_generator_order(self):
        assert pow(TEST_GROUP.g, TEST_GROUP.q, TEST_GROUP.p) == 1
        assert pow(TEST_GROUP.g, 1, TEST_GROUP.p) != 1

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=7, g=4)

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=11, g=5)  # 5 has order 22, not 11

    def test_rfc3526_parameters_valid(self):
        group = RFC3526_GROUP_2048
        assert group.p.bit_length() == 2048
        assert group.p == 2 * group.q + 1
        # constructor already verified g^q == 1


class TestGroupOperations:
    def test_exp_reduces_mod_q(self):
        g = TEST_GROUP
        assert g.gexp(g.q + 5) == g.gexp(5)

    def test_inverse(self):
        g = TEST_GROUP
        a = g.gexp(12345)
        assert g.mul(a, g.inv(a)) == 1

    def test_inverse_is_fermats_value_and_refuses_zero(self):
        """Extended Euclid, bit-identical to ``a^(p-2)`` for any integer
        that has an inverse; 0 has none (Fermat silently returned 0)."""
        for g in (TEST_GROUP, BENCH_GROUP_256):
            for a in (1, 2, g.p - 1, g.gexp(77), g.p + 3, -5):
                assert g.inv(a) == pow(a, g.p - 2, g.p)
            for zero in (0, g.p, -g.p):
                with pytest.raises(ZeroDivisionError, match="cannot invert 0 mod p"):
                    g.inv(zero)

    def test_div(self):
        g = TEST_GROUP
        a, b = g.gexp(10), g.gexp(3)
        assert g.div(a, b) == g.gexp(7)

    def test_negative_exponent(self):
        g = TEST_GROUP
        assert g.gexp(-3) == g.inv(g.gexp(3))

    def test_random_exponent_in_range(self):
        rng = random.Random(0)
        for _ in range(20):
            e = TEST_GROUP.random_exponent(rng)
            assert 1 <= e < TEST_GROUP.q


class TestGeneration:
    def test_generate_small_group(self):
        group = SchnorrGroup.generate(48, random.Random(1))
        assert group.p.bit_length() <= 49
        assert is_probable_prime(group.p)
        assert is_probable_prime(group.q)

    def test_generate_deterministic(self):
        a = SchnorrGroup.generate(48, random.Random(5))
        b = SchnorrGroup.generate(48, random.Random(5))
        assert a.p == b.p

    def test_test_group_is_the_seeded_search_result(self):
        assert SchnorrGroup.generate(64, random.Random(42)) == TEST_GROUP

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup.generate(4)
