"""Additively homomorphic vector ElGamal with messages at the exponent.

App. 10.4 verbatim: "Key generation outputs an m-dimensional vector of
secret keys x = (x_i) and a vector of corresponding public keys
h = (h_i) where h_i = g^{x_i}.  Encryption of vector c under public key
h … outputs α = g^r, (β_i = h_i^r · g^{c_i}) for random r."

Decryption recovers γ_i = β_i / α^{x_i} = g^{c_i} and then takes a
bounded discrete log.  Multiplying two ciphertexts component-wise adds
the plaintexts — the homomorphism the centroid-update phase (Fig. 18)
relies on.

Encryption and re-randomization raise ``g`` and every ``h_i`` to one
fresh ``r``: the digits of ``r`` are cut once and folded against the
t + 1 comb tables (:func:`repro.crypto.fastexp.pow_bases`), and a
``g^{c_i}`` whose ``c_i`` is a single digit is a table lookup.  Batch
decryption raises one ``α`` to several secret keys: one squaring
ladder over ``α`` shared by all of them
(:class:`repro.crypto.fastexp.SharedExponents`).  The textbook formulas
above live on as ``tests/oracles/crypto_naive.py``; the lockstep tests
prove this module produces the same ciphertext bytes as that oracle for
the same RNG stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import fastexp
from repro.crypto.dlog import discrete_log
from repro.crypto.group import SchnorrGroup


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted integer vector: (α, β_1 … β_t)."""

    alpha: int
    betas: Tuple[int, ...]

    @property
    def dimensions(self) -> int:
        return len(self.betas)


class VectorElGamal:
    """Keyed encrypt/decrypt/homomorphic-combine over integer vectors."""

    def __init__(self, group: SchnorrGroup, dimensions: int) -> None:
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        self.group = group
        self.dimensions = dimensions
        # per-scheme handle cache so hot paths skip the global LRU lookup
        self._tables: Dict[int, fastexp.FixedBaseTable] = {}

    # -- fixed-base tables ----------------------------------------------------
    def _powers(self, base: int) -> fastexp.FixedBaseTable:
        table = self._tables.get(base)
        if table is None:
            table = self.group.powers_of(base)
            self._tables[base] = table
        return table

    def gexp(self, exponent: int) -> int:
        """g^exponent through the generator's comb table."""
        return self._powers(self.group.g).pow(exponent)

    def _shared_pows(self, public: Sequence[int], r: int) -> List[int]:
        """``[g^r, h_1^r … h_t^r]`` with the digits of r cut once."""
        powers = self._powers
        return fastexp.pow_bases(
            [powers(self.group.g), *map(powers, public)], r
        )

    # -- keys ---------------------------------------------------------------
    def keygen(self, rng: random.Random) -> Tuple[List[int], List[int]]:
        """Return (secret key vector x, public key vector h)."""
        secret = [self.group.random_exponent(rng) for _ in range(self.dimensions)]
        public = [self.gexp(x) for x in secret]
        return secret, public

    # -- encryption -----------------------------------------------------------
    def encrypt(
        self,
        public: Sequence[int],
        plaintext: Sequence[int],
        rng: random.Random,
    ) -> Ciphertext:
        if len(plaintext) != self.dimensions or len(public) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions}-dimensional inputs, got "
                f"{len(plaintext)} plaintext / {len(public)} keys"
            )
        r = self.group.random_exponent(rng)
        p = self.group.p
        alpha, *h_pows = self._shared_pows(public, r)
        # profile coordinates are mostly single comb digits: a lookup
        gpow = self._powers(self.group.g).small_pow
        betas = tuple(
            h_r * gpow(c) % p for h_r, c in zip(h_pows, plaintext)
        )
        return Ciphertext(alpha=alpha, betas=betas)

    def rerandomize(
        self,
        public: Sequence[int],
        ct: Ciphertext,
        rng: random.Random,
        add_at: Optional[Dict[int, int]] = None,
    ) -> Ciphertext:
        """Fresh-looking ciphertext of the same vector, plus offsets.

        Multiplies in an encryption of the (mostly) zero vector without
        materializing it: α′ = α·g^r, β′_i = β_i·h_i^r, and for every
        ``(index, value)`` in ``add_at`` the matching β also picks up
        ``g^value`` — the single-coordinate additive mask the distance
        phase needs.  Exactly one RNG draw (r), and the result is
        bit-identical to ``add(ct, encrypt(public, mask_vector))`` with
        the same draw.
        """
        if len(public) != self.dimensions or ct.dimensions != self.dimensions:
            raise ValueError("public key / ciphertext dimension mismatch")
        r = self.group.random_exponent(rng)
        p = self.group.p
        g_r, *h_pows = self._shared_pows(public, r)
        betas = [b * h_r % p for b, h_r in zip(ct.betas, h_pows)]
        if add_at:
            for index, value in add_at.items():
                betas[index] = betas[index] * self.gexp(value) % p
        return Ciphertext(alpha=ct.alpha * g_r % p, betas=tuple(betas))

    # -- decryption ----------------------------------------------------------
    def decrypt_component(
        self, secret: Sequence[int], ct: Ciphertext, index: int, bound: int
    ) -> int:
        gamma = self.group.div(ct.betas[index], self.group.exp(ct.alpha, secret[index]))
        return discrete_log(self.group, gamma, bound)

    def decrypt_components(
        self,
        secret: Sequence[int],
        ct: Ciphertext,
        indices: Sequence[int],
        bound: int,
    ) -> List[int]:
        """Decrypt several components of one ciphertext in a batch.

        Raises α to all the secret keys over one squaring ladder
        (the base is shared by every component) and unmasks all
        the γ_i = β_i / α^{x_i} with a single Montgomery batch
        inversion, instead of one full inversion per component.
        """
        if len(indices) < 2:
            return [
                self.decrypt_component(secret, ct, i, bound) for i in indices
            ]
        group = self.group
        alpha_pows = fastexp.SharedExponents(
            group.q, [secret[i] for i in indices]
        ).pows(group.p, ct.alpha)
        inverses = fastexp.batch_invert(group.p, alpha_pows)
        return [
            discrete_log(group, group.mul(ct.betas[i], inv), bound)
            for i, inv in zip(indices, inverses)
        ]

    def decrypt(
        self, secret: Sequence[int], ct: Ciphertext, bound: int
    ) -> List[int]:
        if len(secret) != ct.dimensions:
            raise ValueError("secret key / ciphertext dimension mismatch")
        return self.decrypt_components(secret, ct, range(ct.dimensions), bound)

    # -- homomorphism ---------------------------------------------------------
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Ciphertext of the component-wise sum of the two plaintexts."""
        if a.dimensions != b.dimensions:
            raise ValueError("cannot add ciphertexts of different dimension")
        return Ciphertext(
            alpha=self.group.mul(a.alpha, b.alpha),
            betas=tuple(self.group.mul(x, y) for x, y in zip(a.betas, b.betas)),
        )

    def add_many(self, cts: Sequence[Ciphertext]) -> Ciphertext:
        """Single-pass homomorphic sum of a batch of ciphertexts.

        Folds each component mod p as it goes instead of materializing
        an intermediate :class:`Ciphertext` per element — the centroid
        aggregation touches every cluster member, so the per-object
        overhead used to dominate at scale.
        """
        if not cts:
            raise ValueError("nothing to aggregate")
        if len(cts) == 1:
            return cts[0]
        t = cts[0].dimensions
        for ct in cts:
            if ct.dimensions != t:
                raise ValueError("cannot add ciphertexts of different dimension")
        p = self.group.p
        alpha = 1
        betas = [1] * t
        for ct in cts:
            alpha = alpha * ct.alpha % p
            ct_betas = ct.betas
            for i in range(t):
                betas[i] = betas[i] * ct_betas[i] % p
        return Ciphertext(alpha=alpha, betas=tuple(betas))
