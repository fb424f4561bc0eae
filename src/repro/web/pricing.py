"""Pricing policies that drive the simulated retailers.

Every kind of price variation the paper studies is expressed as a
composable policy:

* :class:`CountryMultiplierPricing` — cross-border, location-based PD
  (simple multiplicative factors per country, which [24] reverse
  engineered and this paper confirms);
* :class:`VatInclusivePricing` — amazon.com's behaviour in Sect. 7.3:
  identified users see destination-country VAT baked into the price, so
  in-country differences land exactly on the VAT scales;
* :class:`ABTestPricing` — randomized price buckets; the ``sticky``
  variant pins a client to a bucket, producing the peers with a constant
  bias towards high/low prices seen on jcpenney.com in the UK (Fig. 13);
* :class:`TemporalDriftPricing` — the slow drifts plus rare large jumps
  of Figs. 14–15;
* :class:`PdiPdPricing` — genuine personal-data-induced discrimination,
  conditioned on the tracker-built browsing profile.  The paper found
  none in the wild; we implement it so the watchdog can be validated
  against a ground-truth discriminator.

All randomness is derived from stable hashes of (salt, product, client,
…) so that simulations are reproducible and, crucially, *simultaneous*
fetches of the same product by different vantage points see a coherent
store state.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.events import SECONDS_PER_DAY
from repro.net.geo import GeoDatabase, Location
from repro.web.catalog import Product
from repro.web.trackers import TrackerEcosystem


@dataclass(frozen=True)
class RequestContext:
    """Everything a retailer can observe about one page request."""

    time: float
    location: Location
    user_agent: str = "Mozilla/5.0"
    first_party_cookies: Dict[str, str] = field(default_factory=dict)
    tracker_cookies: Dict[str, str] = field(default_factory=dict)
    request_nonce: int = 0  # distinguishes repeated fetches at equal time

    @property
    def client_key(self) -> str:
        """The identity a retailer keys its server-side state on.

        Prefers the first-party session cookie; falls back to the IP —
        the same identification channels the paper lists in Sect. 3.6.
        """
        sid = self.first_party_cookies.get("sid")
        return sid if sid is not None else self.location.ip

    @property
    def day(self) -> int:
        return int(self.time // SECONDS_PER_DAY)


@dataclass(frozen=True)
class Adjustment:
    """One multiplicative price adjustment with a label for forensics."""

    label: str
    multiplier: float


@dataclass(frozen=True)
class PriceQuote:
    """Final quoted price with its full adjustment breakdown."""

    product_id: str
    base_eur: float
    amount_eur: float
    adjustments: Tuple[Adjustment, ...]


def stable_rng(*keys: object) -> random.Random:
    """A deterministic RNG derived from a hash of the given keys."""
    digest = hashlib.sha256("\x1f".join(repr(k) for k in keys).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class PricingPolicy:
    """Base class: a policy contributes multiplicative adjustments."""

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        raise NotImplementedError

    def quote(self, product: Product, ctx: RequestContext) -> PriceQuote:
        adjustments = tuple(self.adjustments(product, ctx))
        amount = product.base_price_eur
        for adj in adjustments:
            amount *= adj.multiplier
        return PriceQuote(
            product_id=product.product_id,
            base_eur=product.base_price_eur,
            amount_eur=round(amount, 2),
            adjustments=adjustments,
        )


class UniformPricing(PricingPolicy):
    """Same price for everyone, always (the honest baseline retailer)."""

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        return []


class CountryMultiplierPricing(PricingPolicy):
    """Location-based PD: a fixed multiplier per customer country."""

    def __init__(self, multipliers: Dict[str, float], default: float = 1.0) -> None:
        self.multipliers = dict(multipliers)
        self.default = default

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        factor = self.multipliers.get(ctx.location.country, self.default)
        if factor == 1.0:
            return []
        return [Adjustment(label=f"country:{ctx.location.country}", multiplier=factor)]


class RegionalPricing(PricingPolicy):
    """Country multipliers that vary in strength per product.

    Real retailers do not reprice their whole inventory uniformly: the
    live dataset's per-domain spread *distributions* (Fig. 9, bottom) and
    the distinct per-product extremes of Table 3 both require regional
    factors that differ across products.  For each product this policy
    decides (deterministically) whether regional pricing applies at all
    (``coverage``) and scales the country multiplier's distance from 1
    by a per-product factor drawn from ``magnitude_range``.
    """

    def __init__(
        self,
        country_multipliers: Dict[str, float],
        coverage: float = 0.8,
        magnitude_range: Tuple[float, float] = (0.3, 1.0),
        default: float = 1.0,
        salt: str = "regional",
    ) -> None:
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        self.country_multipliers = dict(country_multipliers)
        self.coverage = coverage
        self.magnitude_range = magnitude_range
        self.default = default
        self.salt = salt

    def factor_for(self, product: Product, country: str) -> float:
        multiplier = self.country_multipliers.get(country, self.default)
        if multiplier == 1.0:
            return 1.0
        rng = stable_rng(self.salt, product.product_id)
        if rng.random() > self.coverage:
            return 1.0  # this product is priced globally
        magnitude = rng.uniform(*self.magnitude_range)
        return 1.0 + (multiplier - 1.0) * magnitude

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        factor = self.factor_for(product, ctx.location.country)
        if factor == 1.0:
            return []
        return [
            Adjustment(
                label=f"regional:{ctx.location.country}:{factor:.3f}",
                multiplier=factor,
            )
        ]


class PerCountryABTestPricing(PricingPolicy):
    """Country-specific A/B configurations.

    Sect. 7.3 observes that the *same* retailer A/B tests differently per
    market: jcpenney.com scatters prices across multiple values in Spain,
    two values in France, exactly one 7 % gap in the UK; chegg.com runs
    no test at all in France.  Each country gets its own
    :class:`ABTestPricing` (or none).
    """

    def __init__(
        self,
        per_country: Dict[str, ABTestPricing],
        default: Optional[ABTestPricing] = None,
    ) -> None:
        self.per_country = dict(per_country)
        self.default = default

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        policy = self.per_country.get(ctx.location.country, self.default)
        if policy is None:
            return []
        return policy.adjustments(product, ctx)


class VatInclusivePricing(PricingPolicy):
    """Destination VAT folded into the displayed price for known users.

    When the retailer can pin down the delivery country (the user is
    logged in — modelled by an ``account`` first-party cookie), the price
    includes that country's VAT for the product's category; guests see
    the base price.  Within one country this produces price differences
    that sit exactly on the VAT scale — the amazon.com signature of
    Sect. 7.3.
    """

    #: categories billed at a reduced rate where one exists.
    REDUCED_CATEGORIES = frozenset({"books", "cosmetics", "games"})

    def __init__(self, geodb: GeoDatabase, coverage: float = 1.0,
                 salt: str = "vat") -> None:
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        self._geodb = geodb
        #: fraction of the catalog sold-and-shipped by the retailer
        #: itself — marketplace listings show the base price regardless
        #: of who is looking (why amazon.com differences are rare,
        #: Table 5: below 14% of requests)
        self.coverage = coverage
        self.salt = salt

    def applies_to(self, product: Product) -> bool:
        if self.coverage >= 1.0:
            return True
        return stable_rng(self.salt, product.product_id).random() < self.coverage

    def rate_for(self, product: Product, country_code: str) -> float:
        country = self._geodb.country(country_code)
        rates = country.vat_rates
        if product.category in self.REDUCED_CATEGORIES and len(rates) > 1:
            return rates[1]
        return rates[0]

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        if "account" not in ctx.first_party_cookies:
            return []
        if not self.applies_to(product):
            return []
        rate = self.rate_for(product, ctx.location.country)
        if rate == 0.0:
            return []
        return [Adjustment(label=f"vat:{ctx.location.country}:{rate:.3f}", multiplier=1.0 + rate)]


class ABTestPricing(PricingPolicy):
    """A/B price testing: a random bucket picks a price delta.

    ``sticky=False`` draws a fresh bucket per request (the France-style
    uniform scatter of Fig. 13); ``sticky=True`` buckets by client
    identity, making some peers consistently cheap or expensive (the UK
    pattern).
    """

    def __init__(
        self,
        deltas: Sequence[float] = (-0.02, -0.01, 0.0, 0.01, 0.02),
        sticky: bool = False,
        salt: str = "ab",
    ) -> None:
        if not deltas:
            raise ValueError("ABTestPricing needs at least one delta")
        self.deltas = tuple(deltas)
        self.sticky = sticky
        self.salt = salt

    def bucket_for(self, product: Product, ctx: RequestContext) -> float:
        if self.sticky:
            rng = stable_rng(self.salt, ctx.client_key)
        else:
            rng = stable_rng(
                self.salt, product.product_id, ctx.client_key, ctx.time, ctx.request_nonce
            )
        return rng.choice(self.deltas)

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        delta = self.bucket_for(product, ctx)
        if delta == 0.0:
            return []
        return [Adjustment(label=f"ab:{delta:+.3f}", multiplier=1.0 + delta)]


class TemporalDriftPricing(PricingPolicy):
    """Day-granularity price evolution: small drifts plus rare jumps.

    Matches the Sect. 7.5 observation: "the majority of the products of a
    retailer become cheaper through successive small price drops over 20
    days. At the same time, we observed a series of large price jumps for
    a few products."  The factor series is a deterministic function of
    (salt, product), so every vantage point fetching on the same day sees
    the same underlying price.
    """

    def __init__(
        self,
        daily_sigma: float = 0.01,
        trend: float = -0.003,
        jump_prob: float = 0.01,
        jump_scale: float = 0.25,
        updates_per_day: int = 1,
        reversion: float = 0.0,
        salt: str = "drift",
    ) -> None:
        self.daily_sigma = daily_sigma
        self.trend = trend
        self.jump_prob = jump_prob
        self.jump_scale = jump_scale
        self.updates_per_day = max(1, updates_per_day)
        # mean reversion keeps year-long simulations bounded: each step
        # pulls log(factor) back toward 0 with this strength, so a drift
        # calibrated on a 20-day window does not compound into absurd
        # prices over the 13-month deployment.
        self.reversion = reversion
        self.salt = salt
        self._cache: Dict[Tuple[str, int], float] = {}

    def factor_at(self, product_id: str, tick: int) -> float:
        """Cumulative price factor after ``tick`` intra-day updates."""
        if tick <= 0:
            return 1.0
        key = (product_id, tick)
        if key in self._cache:
            return self._cache[key]
        # fill the series iteratively (a year of ticks would overflow the
        # recursion limit)
        start = tick - 1
        while start > 0 and (product_id, start) not in self._cache:
            start -= 1
        for t in range(start + 1, tick):
            self._step(product_id, t)
        return self._step(product_id, tick)

    def _step(self, product_id: str, tick: int) -> float:
        """Extend the cached factor series from tick-1 to tick."""
        prev = self._cache.get((product_id, tick - 1), 1.0)
        rng = stable_rng(self.salt, product_id, tick)
        step = 1.0 + self.trend / self.updates_per_day + rng.gauss(
            0.0, self.daily_sigma / math.sqrt(self.updates_per_day)
        )
        if self.reversion > 0.0 and prev > 0.0:
            step *= math.exp(-self.reversion * math.log(prev)
                             / self.updates_per_day)
        if rng.random() < self.jump_prob / self.updates_per_day:
            jump = 1.0 + rng.uniform(0.5, 1.0) * self.jump_scale
            if rng.random() < 0.3:  # a minority of jumps go down
                jump = 1.0 / jump
            step *= jump
        factor = max(0.05, prev * step)
        self._cache[(product_id, tick)] = factor
        return factor

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        tick = int(ctx.time / SECONDS_PER_DAY * self.updates_per_day)
        factor = self.factor_at(product.product_id, tick)
        if factor == 1.0:
            return []
        return [Adjustment(label=f"drift:day{ctx.day}", multiplier=factor)]


class PdiPdPricing(PricingPolicy):
    """Personal-data-induced PD via a colluding tracker's profiles.

    The retailer queries the tracker ecosystem for the browsing profile
    attached to the visitor's tracker cookies; if the profile shows
    enough visits to ``trigger_domains`` (e.g. luxury or affluent-area
    sites), the price is marked up.  This is the discrimination channel
    hypothesized in Sect. 2.2 requirement 3.
    """

    def __init__(
        self,
        ecosystem: TrackerEcosystem,
        trigger_domains: Sequence[str],
        markup: float = 0.10,
        min_hits: int = 3,
    ) -> None:
        self._ecosystem = ecosystem
        self.trigger_domains = tuple(trigger_domains)
        self.markup = markup
        self.min_hits = min_hits

    def triggered(self, ctx: RequestContext) -> bool:
        profile = self._ecosystem.profile_across_trackers(ctx.tracker_cookies)
        hits = sum(profile.get(d, 0) for d in self.trigger_domains)
        return hits >= self.min_hits

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        if not self.triggered(ctx):
            return []
        return [Adjustment(label=f"pdi-pd:+{self.markup:.2f}", multiplier=1.0 + self.markup)]


class CompositePricing(PricingPolicy):
    """Chain several policies; adjustments multiply in order."""

    def __init__(self, policies: Sequence[PricingPolicy]) -> None:
        self.policies = list(policies)

    def adjustments(self, product: Product, ctx: RequestContext) -> List[Adjustment]:
        out: List[Adjustment] = []
        for policy in self.policies:
            out.extend(policy.adjustments(product, ctx))
        return out
