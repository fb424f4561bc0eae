"""Tests for the systematic study drivers (small instances)."""

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.alexa import ContentWeb, build_alexa_ecommerce
from repro.workloads.crawlstudy import (
    CrawlStudy,
    four_country_case_study,
    temporal_study,
)
from repro.workloads.population import Population, PopulationConfig
from repro.workloads.stores import build_named_stores

TINY_IPCS = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("GB", "London", 1.0),
    ("FR", "Paris", 1.0),
    ("DE", "Berlin", 1.0),
    ("US", "Tennessee", 1.0),
)


@pytest.fixture(scope="module")
def deployment():
    """A small live deployment whose PPC network crawls can share."""
    world = SheriffWorld.create(seed=33)
    web = ContentWeb(world.internet, world.ecosystem, n_domains=30)
    build_named_stores(world)
    live = PriceSheriff(world, n_measurement_servers=1, ipc_sites=TINY_IPCS)
    pop = Population(live, web, PopulationConfig(n_users=45, seed=2))
    pop.build()
    return world, live, pop


class TestCrawlDomains:
    def test_sweep_counts(self, deployment):
        world, live, _ = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        results = study.crawl_domains(
            ["steampowered.com", "overstock.com"],
            products_per_domain=3, repetitions=2,
        )
        assert len(results) == 12

    def test_crawl_uses_separate_backend_database(self, deployment):
        world, live, _ = deployment
        live_requests_before = live.db.count("requests")
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        study.crawl_domains(["steampowered.com"], products_per_domain=2,
                            repetitions=1)
        assert live.db.count("requests") == live_requests_before
        assert study.backend.db.count("requests") == 2

    def test_crawl_reaches_live_ppcs(self, deployment):
        world, live, pop = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        results = study.crawl_domains(
            ["steampowered.com"], products_per_domain=2, repetitions=2,
            country="ES",
        )
        ppc_rows = [r for res in results for r in res.rows if r.kind == "PPC"]
        assert ppc_rows  # the live population served the crawl
        assert all(r.country == "ES" for r in ppc_rows)


class TestFourCountryStudy:
    def test_structure(self, deployment):
        world, live, _ = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        out = four_country_case_study(
            study, domains=("chegg.com",), countries=("ES", "FR"),
            products_per_domain=2, repetitions=2,
        )
        assert set(out) == {"chegg.com"}
        assert set(out["chegg.com"]) == {"ES", "FR"}
        assert len(out["chegg.com"]["ES"]) == 4


class TestTemporalStudy:
    def test_small_run(self, deployment):
        world, live, _ = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS,
                           max_ppcs_per_request=9)
        result = temporal_study(
            study, domains=("chegg.com",), products_per_domain=2,
            days=3, checks_per_day=2,
        )
        assert len(result.results_by_domain["chegg.com"]) == 12
        # features were extracted per PPC observation
        assert result.features
        assert len(result.features) == len(result.prices)
        assert len(result.feature_names) == len(result.features[0])

    def test_observations_span_days(self, deployment):
        world, live, _ = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        result = temporal_study(
            study, domains=("jcpenney.com",), products_per_domain=1,
            days=3, checks_per_day=2,
        )
        from repro.analysis.temporal import daily_series

        series = daily_series(result.results_by_domain["jcpenney.com"])
        days = {d for day_prices in series.values() for d in day_prices}
        assert len(days) >= 3


class TestAlexaSweep:
    def test_no_in_country_differences(self, deployment):
        world, live, _ = deployment
        stores = build_alexa_ecommerce(
            world.internet, world.geodb, world.rates, n=6,
            location_pd_fraction=0.3,
        )
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS)
        results = study.alexa_sweep(
            [s.domain for s in stores], products_per_domain=2, days=2,
        )
        from repro.analysis.pricediff import within_country_percentages

        pct = within_country_percentages(results, ["ES"])
        assert all(v == 0.0 for by_c in pct.values() for v in by_c.values())


class TestBackendConfig:
    def test_overrides_are_sheriff_knobs(self, deployment):
        world, live, _ = deployment
        study = CrawlStudy(world, live, ipc_sites=TINY_IPCS, quorum=2)
        config = study.backend.config
        # the back-end's one own default: ~3 PPCs per request (Sect. 7.1)
        assert config.max_ppcs_per_request == 3
        assert (config.ipc_sites, config.quorum) == (TINY_IPCS, 2)
        assert study.backend.overlay is live.overlay
        with pytest.raises(TypeError, match="n_measurement_sever"):
            CrawlStudy(world, live, n_measurement_sever=3)
