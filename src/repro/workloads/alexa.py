"""The synthetic content web and the Alexa e-commerce top-400.

The "Alexa top domains" list of Sect. 4 is a global popularity ranking
of content sites.  :class:`ContentWeb` registers a configurable number
of content domains with Zipf popularity and per-site tracker subsets;
its ranking is the reference list for "Alexa top domains" profile
vectors, while the empirical ranking of a user base provides the
"users top domains" alternative (Fig. 8(a)).

:func:`build_alexa_ecommerce` creates the Sect. 7.6 roster: the top-400
most popular e-commerce sites, none of which returns different prices
within the same country (a share of them still does location-based PD —
which is exactly what that experiment must *not* flag).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.web.catalog import make_catalog
from repro.web.internet import ContentSite, Internet
from repro.web.pricing import CountryMultiplierPricing, UniformPricing, stable_rng
from repro.web.store import EStore
from repro.web.trackers import TrackerEcosystem


class ContentWeb:
    """Content domains with a designed global popularity ranking."""

    CATEGORY_WORDS = (
        "news", "sports", "video", "mail", "social", "wiki", "weather",
        "music", "games", "travel", "finance", "recipes", "tech", "cars",
        "fashion", "health", "movies", "photo", "blog", "forum",
    )

    def __init__(
        self,
        internet: Internet,
        ecosystem: TrackerEcosystem,
        n_domains: int = 150,
        seed: int = 1,
    ) -> None:
        rng = random.Random(seed)
        self.domains: List[str] = []
        self.popularity: Dict[str, float] = {}
        tracker_domains = ecosystem.domains()
        for rank in range(n_domains):
            word = self.CATEGORY_WORDS[rank % len(self.CATEGORY_WORDS)]
            domain = f"{word}{rank:03d}.web"
            trackers = tuple(
                t for t in tracker_domains if rng.random() < 0.4
            )
            internet.register(ContentSite(domain, tracker_domains=trackers))
            self.domains.append(domain)
            # popularity falls off with rank as a Zipf law, exponent 1.1
            self.popularity[domain] = 1.0 / (rank + 1) ** 1.1
        self._weights = [self.popularity[d] for d in self.domains]

    def alexa_top(self, m: int) -> List[str]:
        """The top-m domains by designed global popularity."""
        if m > len(self.domains):
            raise ValueError(f"only {len(self.domains)} content domains exist")
        return self.domains[:m]

    def sample_domains(self, rng: random.Random, n: int,
                       bias: Optional[Dict[str, float]] = None) -> List[str]:
        """Draw n visit targets from the popularity distribution.

        ``bias`` multiplies selected domains' weights — how a user's
        personal interests skew an otherwise global distribution.
        """
        weights = list(self._weights)
        if bias:
            for i, domain in enumerate(self.domains):
                weights[i] *= bias.get(domain, 1.0)
        return rng.choices(self.domains, weights=weights, k=n)


def build_alexa_ecommerce(
    internet: Internet,
    geodb,
    rates,
    n: int = 400,
    location_pd_fraction: float = 0.05,
) -> List[EStore]:
    """The Alexa top-400 e-commerce sites (Sect. 7.6).

    A small share applies cross-border multipliers (location-based PD is
    common); none varies prices within a country.
    """
    rng = random.Random(7)
    countries = ["US", "GB", "DE", "FR", "ES", "JP", "CN", "IT", "NL", "CA"]
    stores = []
    for i in range(n):
        domain = f"alexa-shop-{i:03d}.example"
        country = rng.choice(countries)
        if rng.random() < location_pd_fraction:
            factor_rng = stable_rng("alexa-pd", domain)
            pricing = CountryMultiplierPricing(
                {c: 1.0 + factor_rng.uniform(0.05, 0.4)
                 for c in rng.sample(countries, 3)}
            )
        else:
            pricing = UniformPricing()
        store = EStore(
            domain=domain,
            country_code=country,
            catalog=make_catalog(domain, size=6, rng=rng),
            pricing=pricing,
            geodb=geodb,
            rates=rates,
        )
        internet.register(store)
        stores.append(store)
    return stores
