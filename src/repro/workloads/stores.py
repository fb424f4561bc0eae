"""The calibrated retailer roster of the live deployment.

Every domain the paper names gets a pricing policy tuned to reproduce
its reported behaviour:

* the Fig. 9 / Table 3 cross-border retailers (digitalrev.com with the
  Phase One IQ280, steampowered.com's regional game pricing up to
  ×2.55, abercrombie.com, luisaviaroma.com with >€1000 absolute gaps,
  …) use :class:`~repro.web.pricing.RegionalPricing`;
* the three within-country domains of Sect. 6.3/7.3: amazon.com folds
  destination VAT into prices for identified users, jcpenney.com runs
  per-country A/B tests (sticky in the UK — the biased peers of
  Fig. 13) over a drifting baseline with occasional large jumps
  (Fig. 14), chegg.com runs scattered 3–7 % A/B deltas with a smoother
  drift (Fig. 15) and no test at all in France (Table 5);
* everything else is honest.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.sheriff import SheriffWorld
from repro.web.catalog import Product, flagship_products, make_catalog
from repro.web.pricing import (
    ABTestPricing,
    CompositePricing,
        PerCountryABTestPricing,
    PricingPolicy,
    RegionalPricing,
    TemporalDriftPricing,
    UniformPricing,
    VatInclusivePricing,
)
from repro.web.store import EStore

PolicyFactory = Callable[[SheriffWorld], PricingPolicy]


@dataclass(frozen=True)
class StoreSpec:
    """Blueprint for one named retailer."""

    domain: str
    country: str
    categories: Tuple[str, ...]
    policy_factory: PolicyFactory
    catalog_size: int = 8
    currency_strategy: str = "local"
    popularity: float = 1.0  # request weight in the live deployment
    flagship: Tuple[Product, ...] = ()
    converter_skew: float = 1.0


def _jcpenney_policy(world: SheriffWorld) -> PricingPolicy:
    return CompositePricing([
        RegionalPricing(
            {"JP": 1.55, "KR": 1.5, "ES": 1.35, "PT": 1.4, "CZ": 1.45},
            coverage=0.8, magnitude_range=(0.6, 1.0), salt="jcp-regional",
        ),
        PerCountryABTestPricing({
            # Spain: scattered across multiple small values; zero-heavy
            # so only ~59% of checks catch a difference (Table 5)
            "ES": ABTestPricing(
                deltas=(0.0,) * 22 + (0.004, 0.008, 0.012),
                salt="jcp-es",
            ),
            # France: two values, small (<2%), ~67% of checks differ
            "FR": ABTestPricing(deltas=(0.0,) * 8 + (0.018, 0.018),
                                salt="jcp-fr"),
            # UK: exactly one 7% gap, sticky per client → the biased
            # peers of Fig. 13 (≈1 in 5 clients lands in the high bucket)
            "GB": ABTestPricing(deltas=(0.0,) * 4 + (0.07,), sticky=True,
                                salt="jcp-uk"),
            # Germany: one value, rarer (~35% of checks differ)
            "DE": ABTestPricing(deltas=(0.0,) * 23 + (0.015, 0.015),
                                salt="jcp-de"),
        }),
        TemporalDriftPricing(
            daily_sigma=0.008, trend=-0.004, jump_prob=0.06, jump_scale=0.45,
            updates_per_day=2, reversion=0.03, salt="jcp-drift",
        ),
    ])


def _chegg_policy(world: SheriffWorld) -> PricingPolicy:
    return CompositePricing([
        PerCountryABTestPricing({
            # Spain: deltas uniformly spread between 3% and 7%
            # (Sect. 7.3), zero-heavy to land near 39% of checks
            "ES": ABTestPricing(
                deltas=(0.0,) * 72 + (0.03, 0.04, 0.05, 0.06, 0.07),
                salt="chegg-es",
            ),
            "GB": ABTestPricing(
                deltas=(0.0,) * 60 + (0.03, 0.05), salt="chegg-uk",
            ),
            "DE": ABTestPricing(deltas=(0.0,) * 199 + (0.025,),
                                salt="chegg-de"),
            # France: no A/B testing at all (Table 5: 0.0%)
        }),
        TemporalDriftPricing(
            daily_sigma=0.035, trend=0.0015, jump_prob=0.004, jump_scale=0.12,
            updates_per_day=2, reversion=0.03, salt="chegg-drift",
        ),
    ])


def _amazon_policy(world: SheriffWorld) -> PricingPolicy:
    # only the retailer's own listings fold VAT in for identified
    # users; marketplace listings show the base price (keeps the
    # in-country difference rate below ~14%, Table 5)
    return VatInclusivePricing(world.geodb, coverage=0.15)


def named_store_specs() -> List[StoreSpec]:
    """Every retailer the paper names, with its calibrated policy."""
    flags = flagship_products()
    return [
        StoreSpec(
            domain="digitalrev.com", country="HK",
            categories=("pro-photo", "electronics"),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.19, "CA": 1.30, "BR": 1.35},
                coverage=0.95, magnitude_range=(0.8, 1.0), salt="digitalrev",
            ),
            currency_strategy="geo",
            flagship=(flags["iq280"],),
            popularity=1.4,
        ),
        StoreSpec(
            domain="steampowered.com", country="US", categories=("games",),
            policy_factory=lambda w: RegionalPricing(
                {"BR": 0.45, "RU": 0.40, "AR": 0.48, "TR": 0.50, "CN": 0.52},
                coverage=0.85, magnitude_range=(0.5, 1.0), salt="steam",
            ),
            popularity=2.2,
        ),
        StoreSpec(
            domain="abercrombie.com", country="US", categories=("clothing",),
            policy_factory=lambda w: RegionalPricing(
                {"JP": 1.9, "KR": 1.75, "CZ": 1.6, "ES": 1.45, "DE": 1.45},
                coverage=0.85, magnitude_range=(0.5, 1.3), salt="abercrombie",
            ),
            popularity=1.6,
        ),
        StoreSpec(
            domain="luisaviaroma.com", country="IT",
            categories=("clothing", "accessories"),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.6, "JP": 1.55, "KR": 1.9, "HK": 1.5, "RU": 2.2},
                coverage=0.8, magnitude_range=(0.3, 1.1), salt="luisaviaroma",
            ),
            catalog_size=10,
            popularity=1.3,
        ),
        StoreSpec(
            domain="overstock.com", country="US",
            categories=("household", "furniture"),
            policy_factory=lambda w: RegionalPricing(
                {"CA": 1.35, "AU": 1.4, "NZ": 1.35, "GB": 1.25},
                coverage=0.75, magnitude_range=(0.4, 1.0), salt="overstock",
            ),
            popularity=1.5,
        ),
        StoreSpec(
            domain="suitsupply.com", country="NL", categories=("clothing",),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.6, "JP": 1.5, "AU": 1.55, "HK": 1.45},
                coverage=0.8, magnitude_range=(0.4, 1.35), salt="suitsupply",
            ),
            popularity=1.1,
        ),
        StoreSpec(
            domain="aeropostale.com", country="US", categories=("clothing",),
            policy_factory=lambda w: RegionalPricing(
                {"JP": 1.8, "KR": 1.9, "ES": 1.5},
                coverage=0.7, magnitude_range=(0.4, 1.3), salt="aeropostale",
            ),
            popularity=1.0,
        ),
        StoreSpec(
            domain="raffaello-network.com", country="IT",
            categories=("accessories", "clothing"),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.7, "JP": 1.6, "HK": 1.5},
                coverage=0.7, magnitude_range=(0.4, 1.2), salt="raffaello",
            ),
            popularity=0.8,
        ),
        StoreSpec(
            domain="bookdepository.com", country="GB", categories=("books",),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.5, "BR": 1.8, "TH": 1.6, "NZ": 1.4},
                coverage=0.7, magnitude_range=(0.4, 1.2), salt="bookdep",
            ),
            popularity=1.4,
        ),
        StoreSpec(
            domain="anntaylor.com", country="US", categories=("clothing",),
            policy_factory=lambda w: RegionalPricing(
                {"JP": 3.6, "KR": 4.2, "CZ": 2.8},
                coverage=0.55, magnitude_range=(0.5, 1.0), salt="anntaylor",
            ),
            popularity=0.9,
        ),
        StoreSpec(
            domain="macys.com", country="US", categories=("clothing", "household"),
            policy_factory=lambda w: RegionalPricing(
                {"CA": 1.2, "GB": 1.15}, coverage=0.5,
                magnitude_range=(0.3, 0.8), salt="macys",
            ),
            popularity=1.3,
        ),
        StoreSpec(
            domain="tuscanyleather.it", country="IT", categories=("accessories",),
            policy_factory=lambda w: RegionalPricing(
                {"US": 1.45, "JP": 1.4}, coverage=0.75,
                magnitude_range=(0.4, 1.0), salt="tuscany",
            ),
            popularity=0.7,
        ),
        # the three within-country retailers of Sect. 6.3 / 7.3
        StoreSpec(
            domain="amazon.com", country="US",
            categories=("books", "electronics", "household", "games"),
            policy_factory=_amazon_policy,
            catalog_size=14,
            popularity=4.0,
        ),
        StoreSpec(
            domain="jcpenney.com", country="US",
            categories=("clothing", "cosmetics", "jewelry", "household",
                        "furniture", "accessories"),
            policy_factory=_jcpenney_policy,
            catalog_size=12,
            flagship=(flags["refrigerator"], flags["mud-mask"],
                      flags["shaving-cream"], flags["sofa"],
                      flags["leather-bag"]),
            popularity=2.0,
        ),
        StoreSpec(
            domain="chegg.com", country="US", categories=("books",),
            policy_factory=_chegg_policy,
            catalog_size=12,
            popularity=1.8,
        ),
    ]


def extra_pd_store_specs(n: int, seed: int = 31) -> List[StoreSpec]:
    """The remaining location-PD retailers (the paper found 76 total)."""
    rng = random.Random(seed)
    countries = ["US", "GB", "DE", "FR", "IT", "JP", "ES", "NL", "CA", "AU"]
    target_countries = ["US", "JP", "KR", "CA", "AU", "GB", "CZ", "BR", "NZ", "HK"]
    specs = []
    for i in range(n):
        domain = f"pd-store-{i:02d}.example"
        multipliers = {
            c: 1.0 + rng.uniform(0.08, 0.6)
            for c in rng.sample(target_countries, rng.randint(1, 3))
        }
        salt = f"pd-{i}"
        specs.append(
            StoreSpec(
                domain=domain,
                country=rng.choice(countries),
                categories=("clothing", "electronics", "household"),
                policy_factory=(
                    lambda w, m=multipliers, s=salt: RegionalPricing(
                        m, coverage=0.7, magnitude_range=(0.3, 1.0), salt=s
                    )
                ),
                catalog_size=6,
                popularity=0.4 + rng.random() * 0.4,
            )
        )
    return specs


def uniform_store_specs(n: int, seed: int = 32) -> List[StoreSpec]:
    """The honest long tail (most of the 1994 checked domains)."""
    rng = random.Random(seed)
    countries = ["US", "GB", "DE", "FR", "IT", "JP", "ES", "NL", "CA", "AU",
                 "SE", "CH", "PL", "GR", "BE"]
    specs = []
    for i in range(n):
        specs.append(
            StoreSpec(
                domain=f"shop-{i:03d}.example",
                country=rng.choice(countries),
                categories=("clothing", "electronics", "books", "household"),
                policy_factory=lambda w: UniformPricing(),
                catalog_size=5,
                popularity=0.05 + rng.random() * 0.3,
            )
        )
    return specs


def build_named_stores(
    world: SheriffWorld,
    specs: Optional[Sequence[StoreSpec]] = None,
) -> Dict[str, EStore]:
    """Instantiate and register a roster of stores on a world."""
    if specs is None:
        specs = named_store_specs()
    rng = random.Random(11)
    tracker_domains = world.ecosystem.domains()
    stores: Dict[str, EStore] = {}
    for spec in specs:
        # each tracker is embedded on ~40 % of the stores
        trackers = tuple(t for t in tracker_domains if rng.random() < 0.4)
        catalog = make_catalog(
            spec.domain, size=spec.catalog_size,
            rng=random.Random(zlib.crc32(spec.domain.encode())),
            categories=list(spec.categories),
            flagship=list(spec.flagship),
        )
        store = EStore(
            domain=spec.domain,
            country_code=spec.country,
            catalog=catalog,
            pricing=spec.policy_factory(world),
            geodb=world.geodb,
            rates=world.rates,
            tracker_domains=trackers,
            currency_strategy=spec.currency_strategy,
            converter_skew=spec.converter_skew,
        )
        world.internet.register(store)
        stores[spec.domain] = store
    return stores
