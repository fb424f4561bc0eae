"""Drivers for the systematic measurement study (Sect. 7).

All crawling runs on a *parallel back-end*: a second
:class:`~repro.core.sheriff.PriceSheriff` over the same world that
shares the live deployment's PPC overlay but keeps its own database —
exactly the isolation the paper describes in Sect. 7.1.

* :meth:`CrawlStudy.crawl_domains` — the 24-domain × 30-product × 15-rep
  sweep behind Fig. 11 / Table 3 / Sect. 7.2;
* :func:`four_country_case_study` — ~300 requests per retailer per
  country for chegg/jcpenney/amazon in ES/FR/GB/DE (Fig. 12, Table 5,
  Fig. 13);
* :func:`temporal_study` — the Sect. 7.5 setup: a fleet of clean-profile
  PPCs in Spain covering the full OS × browser matrix, checking each
  product twice a day for 20 days (Figs. 14–15);
* :meth:`CrawlStudy.alexa_sweep` — the Sect. 7.6 top-400 scan.
"""

from __future__ import annotations

import random
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.browser.fingerprint import all_user_agents
from repro.clients.crawler import SystematicCrawler
from repro.core.pricecheck import PriceCheckResult
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.events import SECONDS_PER_DAY
from repro.web.store import EStore


class CrawlStudy:
    """A crawling back-end attached to an existing deployment.

    ``overrides`` are :class:`~repro.core.config.SheriffConfig` knobs of
    the back-end, as ``PriceSheriff`` takes them.
    """

    def __init__(
        self,
        world: SheriffWorld,
        live_sheriff: Optional[PriceSheriff] = None,
        seed: int = 71,
        **overrides: Any,
    ) -> None:
        self.world = world
        self.backend = PriceSheriff(
            world,
            overlay=live_sheriff.overlay if live_sheriff is not None else None,
            # the paper's requests reached ~3 PPCs on average (max 5)
            **{"max_ppcs_per_request": 3, **overrides},
        )
        self._rng = random.Random(seed)

    # -- generic sweeps -----------------------------------------------------
    def product_urls(self, domain: str, n_products: int) -> List[str]:
        store = self.world.internet.site(domain)
        assert isinstance(store, EStore)
        products = store.catalog.sample(self._rng, min(n_products, len(store.catalog)))
        return [store.product_url(p.product_id) for p in products]

    def crawl_domains(
        self,
        domains: Sequence[str],
        products_per_domain: int = 30,
        repetitions: int = 15,
        country: str = "ES",
        city: Optional[str] = None,
    ) -> List[PriceCheckResult]:
        """The Sect. 7.1 sweep: every product, ``repetitions`` times, with
        repetitions spread over varying times of day."""
        urls = {
            domain: self.product_urls(domain, products_per_domain)
            for domain in domains
        }
        crawler = SystematicCrawler(
            self.backend, country, city, rng=random.Random(self._rng.random())
        )
        results: List[PriceCheckResult] = []
        for rep in range(repetitions):
            # repetitions happen at varying times of the day
            self.world.clock.advance(self._rng.uniform(0.2, 0.5) * SECONDS_PER_DAY)
            for domain in domains:
                for url in urls[domain]:
                    results.append(crawler.check(url))
        return results

    def alexa_sweep(
        self,
        domains: Sequence[str],
        products_per_domain: int = 5,
        days: int = 3,
        country: str = "ES",
    ) -> List[PriceCheckResult]:
        """Sect. 7.6: each site, 5 random products, 3 consecutive days."""
        urls = {
            domain: self.product_urls(domain, products_per_domain)
            for domain in domains
        }
        crawler = SystematicCrawler(
            self.backend, country, rng=random.Random(self._rng.random())
        )
        results: List[PriceCheckResult] = []
        for _ in range(days):
            for domain in domains:
                for url in urls[domain]:
                    results.append(crawler.check(url))
            self.world.clock.advance(SECONDS_PER_DAY)
        return results


def four_country_case_study(
    study: CrawlStudy,
    domains: Sequence[str] = ("chegg.com", "jcpenney.com", "amazon.com"),
    countries: Sequence[str] = ("ES", "FR", "GB", "DE"),
    products_per_domain: int = 25,
    repetitions: int = 15,
) -> Dict[str, Dict[str, List[PriceCheckResult]]]:
    """Sect. 7.3: per-retailer, per-country artificial request batches.

    Requires the shared overlay to contain PPCs in each target country
    (the live population provides them).  Returns
    ``{domain: {country: [results]}}``.
    """
    out: Dict[str, Dict[str, List[PriceCheckResult]]] = defaultdict(dict)
    for domain in domains:
        urls = study.product_urls(domain, products_per_domain)
        for country in countries:
            crawler = SystematicCrawler(
                study.backend, country,
                rng=random.Random(zlib.crc32(f"{domain}:{country}".encode())),
            )
            results: List[PriceCheckResult] = []
            for _ in range(repetitions):
                study.world.clock.advance(0.3 * SECONDS_PER_DAY)
                for url in urls:
                    results.append(crawler.check(url))
            out[domain][country] = results
    return dict(out)


@dataclass
class TemporalStudyResult:
    """Output of the Sect. 7.5 temporal experiment."""

    results_by_domain: Dict[str, List[PriceCheckResult]]
    feature_names: List[str]
    features: List[List[float]]  # per PPC observation
    prices: List[float]  # normalized price (vs per-check median)


def temporal_study(
    study: CrawlStudy,
    domains: Sequence[str] = ("jcpenney.com", "chegg.com"),
    products_per_domain: int = 30,
    days: int = 20,
    checks_per_day: int = 2,
    country: str = "ES",
) -> TemporalStudyResult:
    """The Sect. 7.5 setup: clean-profile PPC fleet + UA matrix.

    A fleet of nine PPCs — every OS × browser combination — with empty
    browsing histories is stood up in Spain; every product is checked
    ``checks_per_day`` times per day for ``days`` days.  The regression
    features (OS, browser, quarter of day, weekday) are extracted per
    PPC observation, with the price normalized by the check's median so
    products of different price levels pool.
    """
    agents = all_user_agents()
    fleet_sheriff = study.backend
    for agent in agents:
        browser = study.world.make_browser(country, agent=agent)
        fleet_sheriff.install_addon(browser)  # clean-profile PPC

    urls = {d: study.product_urls(d, products_per_domain) for d in domains}
    crawler = SystematicCrawler(
        fleet_sheriff, country, rng=random.Random(4242),
        min_delay=1.0, max_delay=5.0,
    )
    results_by_domain: Dict[str, List[PriceCheckResult]] = defaultdict(list)
    for day in range(days):
        for check in range(checks_per_day):
            for domain in domains:
                for url in urls[domain]:
                    results_by_domain[domain].append(crawler.check(url))
            # morning / evening split
            study.world.clock.advance(SECONDS_PER_DAY / (checks_per_day + 1))
        # move to the next day boundary
        remainder = SECONDS_PER_DAY - (study.world.clock.now % SECONDS_PER_DAY)
        study.world.clock.advance(remainder + 1.0)

    names, X, y = _regression_features(results_by_domain)
    return TemporalStudyResult(
        results_by_domain=dict(results_by_domain),
        feature_names=names,
        features=X,
        prices=y,
    )


def _regression_features(
    results_by_domain: Dict[str, List[PriceCheckResult]]
) -> Tuple[List[str], List[List[float]], List[float]]:
    """Per-PPC-observation feature matrix for the Sect. 7.5 regressions."""
    from repro.browser.fingerprint import BROWSERS, OSES

    names = (
        [f"os:{o}" for o in OSES[:-1]]
        + [f"browser:{b}" for b in BROWSERS[:-1]]
        + [f"quarter:{q}" for q in range(3)]
        + ["weekday"]
    )
    X: List[List[float]] = []
    y: List[float] = []
    for results in results_by_domain.values():
        for result in results:
            prices = [
                r.amount_eur for r in result.valid_rows()
                if r.kind == "PPC" and r.amount_eur is not None
            ]
            if len(prices) < 2:
                continue
            median = sorted(prices)[len(prices) // 2]
            if median <= 0:
                continue
            day_seconds = result.time % SECONDS_PER_DAY
            quarter = int(day_seconds // (SECONDS_PER_DAY / 4))
            weekday = int(result.time // SECONDS_PER_DAY) % 7
            for row in result.valid_rows():
                if row.kind != "PPC" or row.amount_eur is None:
                    continue
                features = (
                    [1.0 if row.ua_os == o else 0.0 for o in OSES[:-1]]
                    + [1.0 if row.ua_browser == b else 0.0 for b in BROWSERS[:-1]]
                    + [1.0 if quarter == q else 0.0 for q in range(3)]
                    + [float(weekday)]
                )
                X.append(features)
                y.append(row.amount_eur / median)
    return names, X, y
