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
the whole denominator costs one inversion.

The distance phase scores every centroid against every masked client,
so evaluation is a batch (:meth:`InnerProductFE.eval_elements_batch`)
in two of the shapes of :mod:`repro.crypto.fastexp`: the k function
vectors over one ciphertext's β_i share each β_i's squarings
(``SignedProducts``; which bit of which ``s_{k,i}`` goes where is
planned once for the whole batch), and the k function keys over one α
share its squaring ladder (``SharedExponents``; their windows are cut
once for the whole batch).  Every denominator of the batch is inverted
in one Montgomery pass.  At the ``cluster_round`` shape (k = 4, m = 16,
256 bits) that is ≈490 + ≈225 multiplications per ciphertext, 212 +
104 µs, against 493 + 151 µs for one built-in ``pow`` per exponent.

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
    def eval_element(self, ct: Ciphertext, s: Sequence[int], f: int) -> int:
        """γ = Π β_i^{s_i} / α^f, i.e. g^{⟨c, s⟩} as a group element."""
        return self.eval_elements(ct, [s], [f])[0]

    def eval_elements(
        self,
        ct: Ciphertext,
        s_vectors: Sequence[Sequence[int]],
        f_keys: Sequence[int],
    ) -> List[int]:
        """Evaluate one ciphertext against many (s, f) pairs at once."""
        return self.eval_elements_batch([ct], s_vectors, f_keys)[0]

    def eval_elements_batch(
        self,
        cts: Sequence[Ciphertext],
        s_vectors: Sequence[Sequence[int]],
        f_keys: Sequence[int],
    ) -> List[List[int]]:
        """Evaluate many ciphertexts against the same (s, f) pairs.

        ``out[n][k]`` is ciphertext n under function vector k.  The
        plan over the ``s_vectors`` and the windows of the ``f_keys``
        are made once; each ciphertext then pays one short squaring
        ladder per β_i and one full one over its α.
        """
        if len(s_vectors) != len(f_keys):
            raise ValueError("function vector / key count mismatch")
        dimensions = {len(s) for s in s_vectors} | {ct.dimensions for ct in cts}
        if len(dimensions) > 1:
            raise ValueError("function vector / ciphertext dimension mismatch")
        p = self.group.p
        products = fastexp.SignedProducts(s_vectors)
        key_pows = fastexp.SharedExponents(self.group.q, f_keys)
        numerators: List[int] = []
        denominators: List[int] = []
        for ct in cts:
            nums, dens = products.of(p, ct.betas)
            numerators += nums
            denominators += [
                den * a_f % p for den, a_f in zip(dens, key_pows.pows(p, ct.alpha))
            ]
        inverses = fastexp.batch_invert(p, denominators)
        k = len(f_keys)
        elements = [num * inv % p for num, inv in zip(numerators, inverses)]
        return [elements[n * k: (n + 1) * k] for n in range(len(cts))]

    def eval_dot_product(
        self, ct: Ciphertext, s: Sequence[int], f: int, bound: int
    ) -> int:
        """Recover ⟨c, s⟩ ∈ [0, bound] from the ciphertext."""
        return discrete_log(self.group, self.eval_element(ct, s, f), bound)
