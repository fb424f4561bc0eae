"""The textbook crypto of App. 10.4, formula for formula (test oracle).

Vector ElGamal, the inner-product FE evaluation and the two-phase
k-means protocol written only against ``SchnorrGroup.exp/mul/inv/div``
(plus ``random_exponent`` for the draws): one raw ``pow`` per
exponentiation, one full inversion per division, a full encryption of
the mostly-zero mask vector per client, a linear-walk discrete log.  No
comb tables, no batch inversion, no sign split, no worker pools —
nothing from :mod:`repro.crypto.fastexp`.  ``tests/crypto/test_lockstep.py``
asserts the production layer under ``src/repro/crypto/`` returns the
same bytes and leaves the RNG in the same state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import Ciphertext
from repro.crypto.group import SchnorrGroup


# -- vector ElGamal ------------------------------------------------------------

def keygen(
    group: SchnorrGroup, dimensions: int, rng: random.Random
) -> Tuple[List[int], List[int]]:
    secret = [group.random_exponent(rng) for _ in range(dimensions)]
    return secret, [group.exp(group.g, x) for x in secret]


def encrypt(
    group: SchnorrGroup,
    public: Sequence[int],
    plaintext: Sequence[int],
    rng: random.Random,
) -> Ciphertext:
    """α = g^r, β_i = h_i^r · g^{c_i}."""
    r = group.random_exponent(rng)
    return Ciphertext(
        alpha=group.exp(group.g, r),
        betas=tuple(
            group.mul(group.exp(h, r), group.exp(group.g, c))
            for h, c in zip(public, plaintext)
        ),
    )


def add(group: SchnorrGroup, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    return Ciphertext(
        alpha=group.mul(a.alpha, b.alpha),
        betas=tuple(group.mul(x, y) for x, y in zip(a.betas, b.betas)),
    )


def rerandomize(
    group: SchnorrGroup,
    public: Sequence[int],
    ct: Ciphertext,
    rng: random.Random,
    add_at: Optional[Dict[int, int]] = None,
) -> Ciphertext:
    """``ct`` plus a fresh encryption of the vector that is ``add_at``
    at its indices and zero elsewhere."""
    offsets = [0] * ct.dimensions
    for index, value in (add_at or {}).items():
        offsets[index] = value
    return add(group, ct, encrypt(group, public, offsets, rng))


def dlog(group: SchnorrGroup, element: int, bound: int) -> int:
    """The m in [0, bound] with g^m == element, by walking up from g^0."""
    power = 1
    for m in range(bound + 1):
        if power == element:
            return m
        power = group.mul(power, group.g)
    raise ValueError(f"no discrete log within [0, {bound}]")


def decrypt_components(
    group: SchnorrGroup,
    secret: Sequence[int],
    ct: Ciphertext,
    indices: Sequence[int],
    bound: int,
) -> List[int]:
    """γ_i = β_i / α^{x_i}, then the bounded discrete log of each."""
    return [
        dlog(group, group.div(ct.betas[i], group.exp(ct.alpha, secret[i])), bound)
        for i in indices
    ]


# -- inner-product FE ------------------------------------------------------------

def function_key(group: SchnorrGroup, secret: Sequence[int], s: Sequence[int]) -> int:
    return sum(x * si for x, si in zip(secret, s)) % group.q


def eval_element(group: SchnorrGroup, ct: Ciphertext, s: Sequence[int], f: int) -> int:
    """γ = Π β_i^{s_i} / α^f, negative s_i reduced mod q by ``exp``."""
    numerator = 1
    for beta, si in zip(ct.betas, s):
        numerator = group.mul(numerator, group.exp(beta, si))
    return group.div(numerator, group.exp(ct.alpha, f))


# -- the protocol of Sect. 3.8 ---------------------------------------------------

def secure_kmeans(
    points: Dict[str, Sequence[int]],
    k: int,
    value_bound: int,
    group: SchnorrGroup,
    rng: random.Random,
    halt_threshold: float = 0.02,
    max_iterations: int = 15,
) -> Tuple[List[List[int]], Dict[str, int], int, bool]:
    """One process playing all three roles, in the draw order of
    ``run_secure_kmeans``: keys, one r per client, the Forgy sample,
    then (ν, r) per client per iteration.

    Returns ``(centroids, assignments, iterations, converged)``.
    """
    m = len(next(iter(points.values())))
    t = m + 2
    secret, public = keygen(group, t, rng)
    ciphertexts = {
        cid: encrypt(group, public, [sum(a * a for a in point), 1, *point], rng)
        for cid, point in points.items()
    }
    ids = sorted(points)
    centroids = [list(points[c]) for c in rng.sample(ids, min(k, len(ids)))]
    while len(centroids) < k:
        centroids.append(list(points[rng.choice(ids)]))

    distance_bound = m * value_bound ** 2
    assignments: Dict[str, int] = {}
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # distance phase (Fig. 17)
        function_vectors = [
            [1, sum(b * b for b in centroid), *(-2 * b for b in centroid)]
            for centroid in centroids
        ]
        new_assignments: Dict[str, int] = {}
        for cid, ct in ciphertexts.items():
            nu = group.random_exponent(rng)
            masked = rerandomize(group, public, ct, rng, add_at={0: nu})
            unmask = group.inv(group.exp(group.g, nu))
            distances = [
                dlog(
                    group,
                    group.mul(
                        eval_element(group, masked, s, function_key(group, secret, s)),
                        unmask,
                    ),
                    distance_bound,
                )
                for s in function_vectors
            ]
            new_assignments[cid] = distances.index(min(distances))
        changed = sum(
            1 for cid, cluster in new_assignments.items()
            if assignments.get(cid) != cluster
        )
        assignments = new_assignments

        # centroid-update phase (Fig. 18); an empty cluster keeps its centroid
        for cluster in set(assignments.values()):
            members = [ciphertexts[c] for c, a in assignments.items() if a == cluster]
            aggregate = members[0]
            for ct in members[1:]:
                aggregate = add(group, aggregate, ct)
            sums = decrypt_components(
                group, secret, aggregate, range(2, t), len(members) * value_bound
            )
            centroids[cluster] = [int(round(s / len(members))) for s in sums]

        if changed / len(points) <= halt_threshold:
            converged = True
            break
    return centroids, assignments, iterations, converged
