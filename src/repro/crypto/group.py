"""Schnorr groups: prime-order subgroups of Z_p* with p a safe prime.

System setup in the paper "generates the description of a multiplicative
group G of order q where Decisional Diffie-Hellman is hard, and a
generator g of G" (App. 10.4).  We use safe primes p = 2q + 1 and take g
to be a quadratic residue, so g generates the order-q subgroup.

Three parameter sources:

* :data:`TEST_GROUP` — a fixed 64-bit group for unit tests (fast, and
  obviously not secure);
* :func:`SchnorrGroup.generate` — Miller–Rabin-based safe-prime search,
  practical up to ~256 bits, used by the Fig. 8(c) benchmark;
* :data:`RFC3526_GROUP_2048` — the standardized 2048-bit MODP prime
  (a safe prime) with generator 4, production-grade parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


def is_probable_prime(n: int, rounds: int = 40, rng: Optional[random.Random] = None) -> bool:
    """Miller–Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng if rng is not None else random.Random(0xC0FFEE ^ n)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SchnorrGroup:
    """The subgroup of order q of Z_p*, with p = 2q + 1 a safe prime."""

    p: int  # safe prime modulus
    q: int  # subgroup order, (p - 1) // 2
    g: int  # generator of the order-q subgroup (a quadratic residue)

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValueError("p must equal 2q + 1")
        if not (1 < self.g < self.p):
            raise ValueError("generator outside group range")
        if pow(self.g, self.q, self.p) != 1:
            raise ValueError("generator does not have order q")

    # -- group operations ---------------------------------------------------
    def exp(self, base: int, exponent: int) -> int:
        """base^exponent mod p, with exponents reduced mod q."""
        return pow(base, exponent % self.q, self.p)

    def gexp(self, exponent: int) -> int:
        """g^exponent mod p."""
        return self.exp(self.g, exponent)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """a^-1 mod p by extended Euclid (``pow(a, -1, p)``): the same
        value Fermat's ``a^(p-2)`` gives, at a fraction of the cost."""
        if a % self.p == 0:
            raise ZeroDivisionError("cannot invert 0 mod p")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def random_exponent(self, rng: random.Random) -> int:
        """Uniform exponent in [1, q)."""
        return rng.randrange(1, self.q)

    def powers_of(self, base: int):
        """A shared fixed-base exponentiation table for ``base``.

        Returns a :class:`repro.crypto.fastexp.FixedBaseTable` out of
        the module-level LRU cache; ``powers_of(g).pow(e)`` is
        bit-identical to :meth:`exp` but several times faster once the
        table is warm.  Worker processes forked after the first call
        inherit the table copy-on-write.
        """
        from repro.crypto import fastexp

        return fastexp.fixed_base(self.p, self.q, base)

    @property
    def bits(self) -> int:
        return self.p.bit_length()

    # -- parameter generation --------------------------------------------
    @staticmethod
    def generate(bits: int, rng: Optional[random.Random] = None) -> "SchnorrGroup":
        """Search for a safe prime of the given size and build the group."""
        if bits < 8:
            raise ValueError("group too small")
        rng = rng if rng is not None else random.Random(2017)
        while True:
            q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
            if not is_probable_prime(q, rounds=20, rng=rng):
                continue
            p = 2 * q + 1
            if not is_probable_prime(p, rounds=20, rng=rng):
                continue
            # 4 = 2^2 is always a quadratic residue → order q.
            return SchnorrGroup(p=p, q=q, g=4)


#: 64-bit test group (p = 2q+1 safe prime); fast enough for unit tests.
#: The result of ``SchnorrGroup.generate(64, random.Random(42))`` pinned
#: as a constant, so importing the module runs no safe-prime search.
TEST_GROUP = SchnorrGroup(p=11657315447453796203, q=5828657723726898101, g=4)

#: 256-bit benchmark group: the result of
#: ``SchnorrGroup.generate(256, random.Random(2017))`` pinned as a
#: constant so the ``cluster_round`` wall-clock workload (``bench/``)
#: never pays the safe-prime search.
_BENCH_P_256 = int(
    "D077C6C03E223C53ECFE22E02915B7608EDD4EFB43013B48A402118D1042020F", 16
)

BENCH_GROUP_256 = SchnorrGroup(
    p=_BENCH_P_256,
    q=(_BENCH_P_256 - 1) // 2,
    g=4,
)

#: RFC 3526 group 14 (2048-bit MODP).  The modulus is a safe prime; we
#: use generator 4 so the generator provably has order q.
#: ``RFC3526_GROUP_2048`` is built, and its generator checked with one
#: 2048-bit ``pow``, on first access (:func:`__getattr__`).
_RFC3526_P_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


def __getattr__(name: str) -> SchnorrGroup:
    if name != "RFC3526_GROUP_2048":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    group = globals()[name] = SchnorrGroup(
        p=_RFC3526_P_2048, q=(_RFC3526_P_2048 - 1) // 2, g=4,
    )
    return group
