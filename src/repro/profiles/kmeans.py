"""Plaintext k-means and silhouette scoring.

:func:`lloyd_kmeans` with ``quantize=True`` is the *exact* plaintext
mirror of :func:`repro.crypto.secure_kmeans.run_secure_kmeans`: same
assign-then-update order, same integer re-quantization of centroids,
same lowest-index tie-break, same changed-fraction halting rule.  Given
identical initial centroids the two produce identical assignments and
centroids — a property the test suite enforces, and the strongest
correctness check of the cryptographic protocol.

:func:`silhouette_score` implements Rousseeuw's silhouette [27], used
throughout Sect. 4 to pick the profile-domain list and the number of
doppelgangers (the Fig. 8(a)/(b) sweeps in
:mod:`repro.experiments.fig8_clustering`; a deployment is given its k).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class KMeansOutcome:
    """Result of a plaintext clustering run."""

    centroids: List[List[float]]
    assignments: Dict[str, int]
    iterations: int
    converged: bool


def lloyd_kmeans(
    points: Dict[str, Sequence[float]],
    k: int,
    rng: Optional[random.Random] = None,
    initial_centroids: Optional[Sequence[Sequence[float]]] = None,
    halt_threshold: float = 0.02,
    max_iterations: int = 15,
    quantize: bool = False,
) -> KMeansOutcome:
    """Lloyd's algorithm over a dict of named points.

    With ``quantize=True`` centroid coordinates are rounded to integers
    after each update, matching the secure protocol's behaviour.
    """
    if not points:
        raise ValueError("no points")
    if k < 1:
        raise ValueError("k must be positive")
    rng = rng if rng is not None else random.Random(2017)
    ids = sorted(points)

    if initial_centroids is None:
        chosen = rng.sample(ids, min(k, len(ids)))
        centroids = [list(points[c]) for c in chosen]
        while len(centroids) < k:
            centroids.append(list(points[rng.choice(ids)]))
    else:
        centroids = [list(c) for c in initial_centroids]

    # Vectorized Lloyd iterations.  Semantics must stay byte-identical
    # to the secure protocol: first-index tie-break on equal distances
    # (np.argmin does that), assign-then-update order, banker's rounding
    # when quantizing (round() and np.round agree), empty clusters keep
    # their previous centroid.
    X = np.asarray([points[i] for i in ids], dtype=float)
    C = np.asarray(centroids, dtype=float)
    assignments: Dict[str, int] = {}
    labels = np.full(len(ids), -1, dtype=int)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        changed = int((new_labels != labels).sum())
        labels = new_labels

        for cluster in range(len(C)):
            mask = labels == cluster
            n = int(mask.sum())
            if n == 0:
                continue
            mean = X[mask].sum(axis=0) / n
            if quantize:
                mean = np.array([float(round(v)) for v in mean])
            C[cluster] = mean

        if changed / len(ids) <= halt_threshold:
            converged = True
            break
    assignments = {client_id: int(label) for client_id, label in zip(ids, labels)}
    if quantize:
        centroids = [[int(v) for v in c] for c in C]
    else:
        centroids = [list(map(float, c)) for c in C]

    return KMeansOutcome(
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        converged=converged,
    )


def silhouette_score(
    points: Sequence[Sequence[float]], labels: Sequence[int]
) -> float:
    """Mean silhouette over all points (Rousseeuw 1987).

    For each point: ``a`` is the mean distance to its own cluster's other
    members, ``b`` the smallest mean distance to another cluster, and the
    silhouette is ``(b − a) / max(a, b)``.  Singleton clusters score 0.
    Raises ``ValueError`` when fewer than two clusters are present.
    """
    X = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    if X.shape[0] != y.shape[0]:
        raise ValueError("points / labels length mismatch")
    unique = np.unique(y)
    if unique.size < 2:
        raise ValueError("silhouette requires at least two clusters")

    # pairwise distances (n is at most ~1k users in our experiments)
    diffs = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))

    scores = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        own = y == y[i]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = np.inf
        for label in unique:
            if label == y[i]:
                continue
            other = y == label
            b = min(b, dist[i, other].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())
