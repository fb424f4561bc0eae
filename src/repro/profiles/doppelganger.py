"""Doppelganger lifecycle and pollution budgets (Sect. 3.6.2).

Two budget mechanisms protect server-side state:

* :class:`PollutionBudget` — per real PPC.  "We allow one new product
  page request for every 4 product pages that the real user of the PPC
  has visited on the given domain" (25 % tolerable pollution).  Domains
  the user never visited are exempt: the retailer holds no state for the
  user there, and the sandbox deletes all client-side traces.
* :class:`Doppelganger` — a fake user whose browsing profile is a
  cluster centroid.  Serving with its state follows the same 1-in-4 rule
  against the visits performed during its *creation*; once 50 % of its
  visited domains are saturated, it is discarded and regenerated with a
  fresh client- and server-side state.

:class:`DoppelgangerManager` runs on the Coordinator side: it drives
dedicated infrastructure browsers to "execute the doppelganger browsing
profile vectors by fetching websites and accumulating client-state"
(Sect. 3.6.2), stores the resulting state, and serves it to PPCs that
present the right 256-bit bearer token.
"""

from __future__ import annotations

import random
import secrets
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.browser.browser import Browser
from repro.net.events import Clock
from repro.net.geo import GeoDatabase
from repro.profiles.vector import ProfileVector
from repro.web.internet import Internet
from repro.web.trackers import TrackerEcosystem

#: the paper's tolerable-pollution ratio: 1 tunneled per 4 organic views.
VISITS_PER_ALLOWED_REQUEST = 4
#: regenerate a doppelganger once half its visited domains are saturated.
REGENERATION_SATURATION = 0.5


class PollutionBudget:
    """Per-PPC accounting of real-profile price-check requests."""

    def __init__(self) -> None:
        self._used: Counter = Counter()

    @staticmethod
    def allowance(organic_product_visits: int) -> int:
        return organic_product_visits // VISITS_PER_ALLOWED_REQUEST

    def can_use_real_profile(self, domain: str, organic_product_visits: int) -> bool:
        """May the PPC serve this domain with its own client state?

        A domain the user never visited is always allowed — there is no
        server-side state to pollute and the sandbox deletes the rest.
        """
        if organic_product_visits == 0:
            return True
        return self._used[domain] < self.allowance(organic_product_visits)

    def record_real_use(self, domain: str) -> None:
        self._used[domain] += 1


@dataclass
class Doppelganger:
    """A trained fake user standing in for one cluster of real users."""

    dopp_id: str  # 256-bit bearer token (Sect. 3.7)
    cluster_index: int
    profile: ProfileVector
    client_state: Dict[str, Dict[str, str]]
    creation_visits: Counter
    serve_used: Counter = field(default_factory=Counter)
    generation: int = 0

    def allowance(self, domain: str) -> int:
        return self.creation_visits[domain] // VISITS_PER_ALLOWED_REQUEST

    def is_saturated(self, domain: str) -> bool:
        if self.creation_visits[domain] == 0:
            return False  # never-visited domains don't saturate
        return self.serve_used[domain] >= self.allowance(domain)

    def record_serve(self, domain: str) -> None:
        self.serve_used[domain] += 1

    def saturated_fraction(self) -> float:
        visited = [d for d, v in self.creation_visits.items() if v > 0]
        if not visited:
            return 0.0
        saturated = sum(1 for d in visited if self.is_saturated(d))
        return saturated / len(visited)

    def needs_regeneration(self) -> bool:
        return self.saturated_fraction() >= REGENERATION_SATURATION


#: where the infrastructure browsers that train doppelgangers sit
INFRA_COUNTRY = "US"


def make_dopp_id() -> str:
    """Random, sufficiently long (256-bit) bearer-token identifier."""
    return secrets.token_hex(32)


class DoppelgangerManager:
    """Coordinator-side creation, storage, and serving of doppelgangers."""

    def __init__(
        self,
        internet: Internet,
        ecosystem: TrackerEcosystem,
        clock: Clock,
        geodb: GeoDatabase,
        rng: Optional[random.Random] = None,
        visits_scale: int = 8,
    ) -> None:
        self._internet = internet
        self._ecosystem = ecosystem
        self._clock = clock
        self._geodb = geodb
        self._rng = rng if rng is not None else random.Random(404)
        self.visits_scale = visits_scale
        self._doppelgangers: Dict[str, Doppelganger] = {}
        self._by_cluster: Dict[int, str] = {}

    # -- training ------------------------------------------------------------
    def _train(self, profile: ProfileVector) -> "tuple[Dict[str, Dict[str, str]], Counter]":
        """Execute a profile vector on a fresh infrastructure browser."""
        browser = Browser(
            internet=self._internet,
            ecosystem=self._ecosystem,
            clock=self._clock,
            location=self._geodb.make_location(INFRA_COUNTRY),
        )
        visits: Counter = Counter()
        for domain, quantized in zip(profile.domains, profile.quantized):
            n_visits = round(quantized / profile.quantization * self.visits_scale)
            if n_visits <= 0 or not self._internet.has_domain(domain):
                continue
            for i in range(n_visits):
                browser.visit(f"http://{domain}/page/{i}")
            visits[domain] = n_visits
        return browser.cookies.snapshot(), visits

    def build_from_centroids(self, centroids: Sequence[ProfileVector]) -> List[Doppelganger]:
        """Create one doppelganger per cluster centroid."""
        out: List[Doppelganger] = []
        for cluster_index, profile in enumerate(centroids):
            state, visits = self._train(profile)
            dopp = Doppelganger(
                dopp_id=make_dopp_id(),
                cluster_index=cluster_index,
                profile=profile,
                client_state=state,
                creation_visits=visits,
            )
            self._doppelgangers[dopp.dopp_id] = dopp
            self._by_cluster[cluster_index] = dopp.dopp_id
            out.append(dopp)
        return out

    # -- lookups ---------------------------------------------------------------
    def id_for_cluster(self, cluster_index: int) -> str:
        """The Aggregator-side mapping: cluster → doppelganger ID."""
        try:
            return self._by_cluster[cluster_index]
        except KeyError:
            raise KeyError(f"no doppelganger for cluster {cluster_index}") from None

    def get(self, dopp_id: str) -> Doppelganger:
        try:
            return self._doppelgangers[dopp_id]
        except KeyError:
            raise KeyError("unknown doppelganger token") from None

    def doppelgangers(self) -> List[Doppelganger]:
        """Every live doppelganger (the ops pollution probe reads the
        fleet's saturation through this)."""
        return list(self._doppelgangers.values())

    def client_state_for(self, dopp_id: str) -> Dict[str, Dict[str, str]]:
        """Bearer-token state request: only a correct token succeeds."""
        return self.get(dopp_id).client_state

    # -- serving & regeneration ----------------------------------------------
    def record_serve(self, dopp_id: str, domain: str) -> None:
        dopp = self.get(dopp_id)
        dopp.record_serve(domain)
        if dopp.needs_regeneration():
            self.regenerate(dopp_id)

    def regenerate(self, dopp_id: str) -> Doppelganger:
        """Discard and retrain: fresh token, fresh client/server state."""
        old = self.get(dopp_id)
        state, visits = self._train(old.profile)
        fresh = Doppelganger(
            dopp_id=make_dopp_id(),
            cluster_index=old.cluster_index,
            profile=old.profile,
            client_state=state,
            creation_visits=visits,
            generation=old.generation + 1,
        )
        del self._doppelgangers[dopp_id]
        self._doppelgangers[fresh.dopp_id] = fresh
        self._by_cluster[old.cluster_index] = fresh.dopp_id
        return fresh
