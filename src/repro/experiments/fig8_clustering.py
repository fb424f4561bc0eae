"""Fig. 8 — doppelganger clustering evaluation.

(a) maximum silhouette vs the number of profile domains m, comparing
    "Users top domains" against "Alexa top domains" — Alexa wins and
    quality degrades as m grows;
(b) silhouette vs k — the curve climbs to ≈0.6 by k≈40 and flattens;
(c) wall-clock time of one privacy-preserving k-means iteration, single
    worker vs four parallel workers, for m ∈ {50, 100} across a k grid —
    the protocol is highly parallelizable.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.reports import format_table
from repro.crypto.group import TEST_GROUP
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
)
from repro.experiments import registry
from repro.profiles.kmeans import lloyd_kmeans, silhouette_score
from repro.profiles.vector import profile_from_counts


# -- donated profile collection ------------------------------------------------

def donated_histories(scale: str):
    """Domain-count histories of the users who opted in (Sect. 4).

    Returns ``(histories, dataset)`` — the dataset gives access to the
    content-domain popularity ranking for the "Alexa top" option.
    """
    dataset = registry.live_dataset(scale)
    histories = [
        addon.browser.browsing_profile_counts()
        for addon in dataset.population.donors()
    ]
    return histories, dataset


def _user_top_domains(histories: Sequence[Counter], m: int) -> List[str]:
    total: Counter = Counter()
    for h in histories:
        total.update(h)
    return [d for d, _ in total.most_common(m)]


def _alexa_top_domains(dataset, m: int) -> List[str]:
    # content domains are registered in designed popularity order
    domains = [
        d for d in dataset.world.internet.domains() if d.endswith(".web")
    ]
    return domains[:m]


def _profiles(histories: Sequence[Counter], domains: Sequence[str]):
    return {
        f"u{i}": list(profile_from_counts(h, domains).frequencies)
        for i, h in enumerate(histories)
    }


def _max_silhouette(points: Dict[str, List[float]], k_grid: Sequence[int]) -> float:
    ids = sorted(points)
    matrix = [points[i] for i in ids]
    best = -1.0
    for k in k_grid:
        if k >= len(ids):
            continue
        outcome = lloyd_kmeans(points, k, rng=random.Random(11))
        labels = [outcome.assignments[i] for i in ids]
        if len(set(labels)) < 2:
            continue
        best = max(best, silhouette_score(matrix, labels))
    return best


# -- Fig. 8(a) ------------------------------------------------------------------

@dataclass
class Fig8aResult:
    m_values: List[int]
    user_top_scores: List[float]
    alexa_top_scores: List[float]

    def render(self) -> str:
        rows = list(zip(self.m_values,
                        [round(s, 3) for s in self.user_top_scores],
                        [round(s, 3) for s in self.alexa_top_scores]))
        return format_table(
            rows,
            headers=("m (domains)", "Users top", "Alexa top"),
            title="Fig. 8(a): max silhouette vs profile-domain list",
        )


def run_fig8a(scale: str = "default") -> Fig8aResult:
    s = registry.scale(scale)
    histories, dataset = donated_histories(scale)
    user_scores, alexa_scores = [], []
    for m in s.profile_m_grid:
        user_domains = _user_top_domains(histories, m)
        alexa_domains = _alexa_top_domains(dataset, m)
        user_scores.append(
            _max_silhouette(_profiles(histories, user_domains), s.profile_k_grid)
        )
        alexa_scores.append(
            _max_silhouette(_profiles(histories, alexa_domains), s.profile_k_grid)
        )
    return Fig8aResult(
        m_values=list(s.profile_m_grid),
        user_top_scores=user_scores,
        alexa_top_scores=alexa_scores,
    )


# -- Fig. 8(b) ------------------------------------------------------------------

@dataclass
class Fig8bResult:
    k_values: List[int]
    scores: List[float]

    def knee_k(self, fraction: float = 0.95) -> Optional[int]:
        """Smallest k reaching ``fraction`` of the best score."""
        valid = [(k, s) for k, s in zip(self.k_values, self.scores)
                 if s == s]  # drop NaN
        if not valid:
            return None
        best = max(s for _, s in valid)
        for k, s in valid:
            if s >= fraction * best:
                return k
        return None

    def render(self) -> str:
        rows = list(zip(self.k_values, [round(s, 3) for s in self.scores]))
        return format_table(
            rows, headers=("k (clusters)", "Silhouette"),
            title="Fig. 8(b): silhouette vs number of clusters",
        )


def run_fig8b(scale: str = "default") -> Fig8bResult:
    s = registry.scale(scale)
    histories, dataset = donated_histories(scale)
    # Fig. 8(b) clusters over the top 100 domains
    m = min(100, max(s.profile_m_grid))
    domains = _alexa_top_domains(dataset, m)
    points = _profiles(histories, domains)
    ids = sorted(points)
    matrix = [points[i] for i in ids]
    scores = []
    for k in s.profile_k_grid:
        if k >= len(ids):
            scores.append(float("nan"))
            continue
        outcome = lloyd_kmeans(points, k, rng=random.Random(13))
        labels = [outcome.assignments[i] for i in ids]
        if len(set(labels)) < 2:
            scores.append(float("nan"))
            continue
        scores.append(silhouette_score(matrix, labels))
    return Fig8bResult(k_values=list(s.profile_k_grid), scores=scores)


# -- Fig. 8(c) ------------------------------------------------------------------

@dataclass
class Fig8cPoint:
    m: int
    k: int
    n_workers: int
    seconds: float


@dataclass
class Fig8cResult:
    points: List[Fig8cPoint]

    def seconds_for(self, m: int, k: int, n_workers: int) -> Optional[float]:
        for p in self.points:
            if (p.m, p.k, p.n_workers) == (m, k, n_workers):
                return p.seconds
        return None

    def speedup(self, m: int, k: int) -> Optional[float]:
        single = self.seconds_for(m, k, 1)
        multi = self.seconds_for(m, k, 4)
        if single is None or multi is None or multi == 0:
            return None
        return single / multi

    def render(self) -> str:
        rows = [(p.m, p.k, p.n_workers, round(p.seconds, 3))
                for p in self.points]
        return format_table(
            rows,
            headers=("m", "k", "workers", "seconds / iteration"),
            title="Fig. 8(c): secure k-means single-iteration time",
        )


#: profile coordinates are integers in [0, VALUE_BOUND], as a deployment
#: quantizes them
VALUE_BOUND = 100


def _time_one_iteration(n_users: int, m: int, k: int, n_workers: int, seed: int) -> float:
    rng = random.Random(seed)
    group = TEST_GROUP
    with KMeansCoordinator(group, m=m, value_bound=VALUE_BOUND,
                           rng=rng, n_workers=n_workers) as coordinator, \
            KMeansAggregator(group, coordinator, rng=rng,
                             n_workers=n_workers) as aggregator:
        points = {}
        for i in range(n_users):
            point = [rng.randint(0, VALUE_BOUND) if rng.random() < 0.3 else 0
                     for _ in range(m)]
            points[f"u{i}"] = point
            client = ProfileClient(point, VALUE_BOUND)
            aggregator.submit(
                f"u{i}",
                client.encrypt_profile(coordinator.scheme,
                                       coordinator.public_keys, rng),
            )
        centroids = [points[f"u{i % n_users}"] for i in range(k)]
        coordinator.set_centroids(centroids)
        started = time.perf_counter()
        aggregator.assign_all()
        for cluster, (aggregate, card) in aggregator.aggregate_clusters().items():
            coordinator.update_centroid(cluster, aggregate, card)
        return time.perf_counter() - started


def run_fig8c(scale: str = "default") -> Fig8cResult:
    """Time every (m, k, workers) configuration.

    Each point keeps the *minimum* over two runs (one at test scale) —
    wall-clock timing on a shared machine is right-skewed by
    interference, and the minimum is the standard robust estimator for
    that.
    """
    s = registry.scale(scale)
    repeats = 1 if scale == "test" else 2
    points = []
    for m in s.kmeans_m_values:
        for k in s.kmeans_k_grid:
            for n_workers in (1, 4):
                seconds = min(
                    _time_one_iteration(
                        n_users=s.kmeans_users, m=m, k=k,
                        n_workers=n_workers, seed=3 + r,
                    )
                    for r in range(repeats)
                )
                points.append(Fig8cPoint(m=m, k=k, n_workers=n_workers,
                                         seconds=seconds))
    return Fig8cResult(points=points)
