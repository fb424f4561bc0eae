"""Inner-product functional encryption (Abdalla et al. [13]).

"The holder of the private keys can compute and outsource the function
key f = Σ x_i s_i for a (private) vector s.  Given an encryption of c
… the holder of the function key can evaluate the dot-product between c
and s by computing γ = Π β_i^{s_i} / α^f and then finding the discrete
logarithm of γ" (App. 10.4).

Negative coordinates in ``s`` (the distance protocol uses −2·b_i) are
handled by reduction modulo the group order — which is exactly what
makes the textbook evaluation slow: ``β^{-2b mod q}`` is a full-width
exponentiation even though ``b`` is a tiny centroid coordinate.  So
evaluation splits ``s`` by sign and computes
``γ = (Π_{s_i>0} β_i^{s_i}) / (Π_{s_i<0} β_i^{-s_i} · α^f)`` instead:
every β-exponent stays as small as the protocol data it encodes, and
the whole denominator costs one inversion.  When one ciphertext is
evaluated against many function vectors (:meth:`eval_elements` — the
distance phase scores every centroid against the same masked client),
the shared base α gets an ephemeral comb table and the per-vector
denominators are inverted together with one Montgomery batch pass.

The verbatim textbook evaluation lives on as
``tests/oracles/crypto_naive.py``; the lockstep tests prove both return
identical group elements.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto import fastexp
from repro.crypto.dlog import discrete_log
from repro.crypto.elgamal import Ciphertext
from repro.crypto.group import SchnorrGroup


class InnerProductFE:
    """Derive function keys and evaluate dot products on ciphertexts."""

    def __init__(self, group: SchnorrGroup) -> None:
        self.group = group

    def function_key(self, secret: Sequence[int], s: Sequence[int]) -> int:
        """f = Σ x_i · s_i (mod q) — derived by the key holder."""
        if len(secret) != len(s):
            raise ValueError("key / function vector dimension mismatch")
        return sum(x * si for x, si in zip(secret, s)) % self.group.q

    # -- evaluation -----------------------------------------------------------
    def _split_products(self, ct: Ciphertext, s: Sequence[int]) -> tuple:
        """(Π_{s_i>0} β_i^{s_i}, Π_{s_i<0} β_i^{-s_i}) with small exponents."""
        p = self.group.p
        num = 1
        den = 1
        for beta, si in zip(ct.betas, s):
            if si == 0:
                continue
            if si == 1:
                num = num * beta % p
            elif si > 0:
                num = num * pow(beta, si, p) % p
            elif si == -1:
                den = den * beta % p
            else:
                den = den * pow(beta, -si, p) % p
        return num, den

    def eval_element(self, ct: Ciphertext, s: Sequence[int], f: int) -> int:
        """γ = Π β_i^{s_i} / α^f, i.e. g^{⟨c, s⟩} as a group element."""
        if len(s) != ct.dimensions:
            raise ValueError("function vector / ciphertext dimension mismatch")
        group = self.group
        num, den = self._split_products(ct, s)
        den = den * pow(ct.alpha, f % group.q, group.p) % group.p
        return group.div(num, den)

    def eval_elements(
        self,
        ct: Ciphertext,
        s_vectors: Sequence[Sequence[int]],
        f_keys: Sequence[int],
    ) -> List[int]:
        """Evaluate one ciphertext against many (s, f) pairs at once.

        The distance phase scores every centroid against the same
        masked client ciphertext, so α is a shared base: it gets one
        ephemeral comb table amortized over all ``len(f_keys)``
        exponentiations, and the per-centroid denominators are unmasked
        with a single Montgomery batch inversion.
        """
        if len(s_vectors) != len(f_keys):
            raise ValueError("function vector / key count mismatch")
        group = self.group
        p = group.p
        atab = fastexp.ephemeral_table(p, group.q, ct.alpha, len(f_keys))
        nums = []
        dens = []
        for s, f in zip(s_vectors, f_keys):
            if len(s) != ct.dimensions:
                raise ValueError("function vector / ciphertext dimension mismatch")
            num, den = self._split_products(ct, s)
            nums.append(num)
            dens.append(den * atab.pow(f) % p)
        inverses = fastexp.batch_invert(p, dens)
        return [num * inv % p for num, inv in zip(nums, inverses)]

    def eval_dot_product(
        self, ct: Ciphertext, s: Sequence[int], f: int, bound: int
    ) -> int:
        """Recover ⟨c, s⟩ ∈ [0, bound] from the ciphertext."""
        return discrete_log(self.group, self.eval_element(ct, s, f), bound)
