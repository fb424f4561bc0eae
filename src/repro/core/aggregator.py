"""The Aggregator: the second trusted, non-colluding back-end entity.

Responsibilities (Sect. 3.7–3.8):

* receive the *encrypted* browsing-profile vectors of PPCs (clients then
  go offline);
* run the Aggregator side of the privacy-preserving k-means against the
  Coordinator, learning only the client→cluster mapping;
* answer "Doppelganger ID requests" (step 3.3 of Fig. 1): a PPC asks for
  the 256-bit bearer token of the doppelganger assigned to its cluster,
  which it then redeems at the Coordinator through an anonymity channel.

The Aggregator never holds cleartext profiles, centroids, or
doppelganger client-side state.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional

from repro.crypto.group import SchnorrGroup, TEST_GROUP
from repro.obs import NULL_TELEMETRY

if TYPE_CHECKING:
    from repro.crypto.elgamal import Ciphertext
    from repro.crypto.secure_kmeans import KMeansAggregator, KMeansCoordinator


class NoDoppelgangerAssigned(LookupError):
    """The peer has no cluster / no doppelganger yet."""


class Aggregator:
    """Back-end role holding ciphertexts and the peer→cluster mapping."""

    def __init__(self, group: Optional[SchnorrGroup] = None,
                 rng: Optional[random.Random] = None,
                 telemetry=NULL_TELEMETRY) -> None:
        self.group = group if group is not None else TEST_GROUP
        self._rng = rng if rng is not None else random.Random(1717)
        #: handed to each round's KMeansAggregator (its phase latencies)
        self._telemetry = telemetry
        self._kmeans: Optional[KMeansAggregator] = None
        self.peer_cluster: Dict[str, int] = {}
        self._cluster_dopp_id: Dict[int, str] = {}

    # -- profile intake ----------------------------------------------------
    def begin_collection(self, crypto_coordinator: KMeansCoordinator,
                         n_workers: int = 1) -> None:
        """Start a clustering round against the given Coordinator role."""
        from repro.crypto.secure_kmeans import KMeansAggregator

        self._kmeans = KMeansAggregator(
            self.group, crypto_coordinator, rng=self._rng, n_workers=n_workers,
            telemetry=self._telemetry,
        )

    def submit_encrypted_profile(self, peer_id: str, ciphertext: Ciphertext) -> None:
        if self._kmeans is None:
            raise RuntimeError("no clustering round in progress")
        self._kmeans.submit(peer_id, ciphertext)

    @property
    def n_profiles(self) -> int:
        return 0 if self._kmeans is None else self._kmeans.n_clients

    # -- the two-phase protocol loop -----------------------------------------
    def run_clustering(
        self,
        halt_threshold: float = 0.02,
        max_iterations: int = 15,
    ) -> Dict[str, int]:
        """Iterate assign/update until the mapping stabilizes.

        Returns the peer→cluster mapping (which is exactly what the
        Aggregator is allowed to learn).  Both parties' worker pools are
        shut down by the time this returns or raises.
        """
        if self._kmeans is None or self._kmeans.n_clients == 0:
            raise RuntimeError("no encrypted profiles collected")
        from repro.crypto.secure_kmeans import iterate_until_stable

        iterate_until_stable(self._kmeans, halt_threshold, max_iterations)
        self.peer_cluster = dict(self._kmeans.assignments)
        return dict(self.peer_cluster)

    # -- doppelganger ID service ------------------------------------------------
    def set_doppelganger_ids(self, cluster_to_id: Dict[int, str]) -> None:
        """Receive the cluster→token map after doppelganger training."""
        self._cluster_dopp_id = dict(cluster_to_id)

    def update_doppelganger_id(self, cluster: int, dopp_id: str) -> None:
        self._cluster_dopp_id[cluster] = dopp_id

    def doppelganger_id_for(self, peer_id: str) -> str:
        """Step 3.3 of Fig. 1: the Doppelganger ID request."""
        cluster = self.peer_cluster.get(peer_id)
        if cluster is None:
            raise NoDoppelgangerAssigned(f"peer {peer_id!r} is not clustered")
        dopp_id = self._cluster_dopp_id.get(cluster)
        if dopp_id is None:
            raise NoDoppelgangerAssigned(f"cluster {cluster} has no doppelganger")
        return dopp_id

    def has_doppelganger_for(self, peer_id: str) -> bool:
        cluster = self.peer_cluster.get(peer_id)
        return cluster is not None and cluster in self._cluster_dopp_id
