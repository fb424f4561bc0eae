"""Browsing profiles, clustering, and doppelganger lifecycle.

A browsing profile vector is "a (normalized) one dimensional vector that
defines the frequency of visits to each of m domains … values in [0,1],
where 0 indicates that the user has no visits to that domain and 1
indicates that is the most visited domain of the user" (Sect. 3.7).

Doppelgangers are fake browser profiles built from k-means centroids of
those vectors; the budget arithmetic of Sect. 3.6.2 (25 % tolerable
pollution, one tunneled request per 4 organic product views, regenerate
at 50 % saturation) lives in :mod:`repro.profiles.doppelganger`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".vector": ["ProfileVector", "profile_from_counts"],
    ".kmeans": [
        "KMeansOutcome", "lloyd_kmeans", "silhouette_score", "squared_distance",
    ],
    ".doppelganger": ["Doppelganger", "DoppelgangerManager", "PollutionBudget"],
})
