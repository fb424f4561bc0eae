"""Tests for the live deployment driver and the Fig. 5 adoption model."""

import json
from collections import defaultdict

import pytest

from repro.analysis.pricediff import domains_with_difference
from repro.core.detector import analyze_rows, differs, relative_spread
from repro.core.errors import InvalidConfig
from repro.web.pricing import UniformPricing
from repro.web.store import EStore
from repro.workloads.deployment import (
    DeploymentConfig,
    LiveDeployment,
    adoption_series,
)
from repro.workloads.population import PopulationConfig
from tests.core.test_config import KNOBS, assert_knob_reached, non_default


@pytest.fixture(scope="module")
def deployment():
    return LiveDeployment(DeploymentConfig.test_scale())


@pytest.fixture(scope="module")
def dataset(deployment):
    return deployment.run()


class TestLiveDeployment:
    def test_requests_completed(self, dataset):
        assert len(dataset.results) >= 70  # a few may fail by design
        assert dataset.n_responses > len(dataset.results) * 10

    def test_many_domains_checked(self, dataset):
        assert dataset.n_domains_checked >= 10

    def test_spain_leads_requests(self, dataset):
        """Table 2 shape: Spain issues the most price checks."""
        top_country, _ = dataset.request_countries.most_common(1)[0]
        assert top_country == "ES"

    def test_pd_stores_detected_uniform_not(self, dataset):
        diff = set(domains_with_difference(dataset.results))
        checked_uniform = {
            r.domain for r in dataset.results if r.domain.startswith("shop-")
        }
        # honest stores show no cross-point difference
        assert not (diff & checked_uniform)
        # at least some calibrated PD stores were caught
        named_pd = {
            "digitalrev.com", "steampowered.com", "abercrombie.com",
            "luisaviaroma.com", "overstock.com", "jcpenney.com",
        }
        assert diff & named_pd

    def test_results_stored_in_database(self, dataset):
        assert dataset.sheriff.db.count("requests") == len(dataset.results)

    def test_clock_advanced_through_window(self, dataset):
        assert dataset.world.clock.day > 100  # a months-long window

    def test_time_ordering(self, dataset):
        times = [r.time for r in dataset.results]
        assert times == sorted(times)

    def test_results_for_domain(self, dataset):
        domain = dataset.results[0].domain
        subset = dataset.results_for_domain(domain)
        assert subset and all(r.domain == domain for r in subset)


class TestVerdictAgainstSeededTruth:
    """The detector's verdict per domain ("some check of it varies")
    against the pricing policy the store was seeded with ("it is not
    uniform").  Pinned as it stands, misses by name, so a change to the
    rule in :mod:`repro.core.detector` shows here as the domains that
    moved."""

    #: discriminating stores whose checks never showed a difference
    MISSED = {
        "aeropostale.com", "macys.com", "pd-store-02.example",
        "steampowered.com",
    }

    def test_verdict_is_the_add_ons_on_every_check(self, dataset):
        for result in dataset.results:
            report = analyze_rows(result.rows, dataset.world.geodb)
            assert (report.classification != "none") == result.has_price_difference()

    def test_sixteen_of_twenty_domains_agree(self, deployment, dataset):
        flagged = {}
        for result in dataset.results:
            report = analyze_rows(result.rows, dataset.world.geodb)
            flagged[result.domain] = (flagged.get(result.domain, False)
                                      or report.classification != "none")
        discriminating = {
            domain: not isinstance(deployment.stores[domain].pricing, UniformPricing)
            for domain in flagged
        }
        wrong = {d for d in flagged if flagged[d] != discriminating[d]}
        assert (len(flagged), len(flagged) - len(wrong)) == (20, 16)
        assert wrong == self.MISSED
        assert {type(deployment.stores[d].pricing).__name__ for d in wrong} == {
            "RegionalPricing"
        }

    #: why the seeded policy priced a missed domain's checks alike: the
    #: product is outside its coverage although a vantage sits in a
    #: repriced country, or no vantage sits in one
    WHY_MISSED = {
        "aeropostale.com": "product not covered",
        "macys.com": "product not covered",
        "pd-store-02.example": "product not covered",
        "steampowered.com": "no vantage in a repriced country",
    }

    def test_the_misses_were_never_priced_apart(self, deployment, dataset):
        """On each of the 16 checks of the missed domains the seeded
        ``RegionalPricing.factor_for(product, country)`` is 1.0 for every
        vantage country: the store charged all of them alike, so the
        detector had no difference to find, and what disagrees is the
        domain-level truth label ("the policy is not uniform")."""
        checks = [r for r in dataset.results if r.domain in self.MISSED]
        assert len(checks) == 16
        for result in checks:
            store = deployment.stores[result.domain]
            pricing = store.pricing
            product = store.catalog.get(result.url.rsplit("/", 1)[1])
            countries = {row.country for row in result.rows}
            assert 5 <= len(countries) <= 6
            assert {pricing.factor_for(product, c) for c in countries} == {1.0}, \
                result.url
            repriced = countries & set(pricing.country_multipliers)
            why = "product not covered" if repriced else "no vantage in a repriced country"
            assert why == self.WHY_MISSED[result.domain], result.url


class TestVerdictPerCheckAgainstTheStoresQuotes:
    """Each check's yes/no verdict against what the stores charged for
    it: a recorder around :meth:`EStore.fetch` keeps the oracle
    ``quote.amount_eur`` of every product page served, grouped by check
    (the fetches of one check share its URL and its fan-out instant),
    and the add-on must find a difference exactly when those quotes
    differ by the detector's own rule."""

    @pytest.fixture(scope="class")
    def checked(self):
        quotes = defaultdict(list)
        fetch = EStore.fetch

        def recorded(store, path, ctx):
            response = fetch(store, path, ctx)
            if response.quote is not None:
                quotes[(response.url, ctx.time)].append(response.quote.amount_eur)
            return response

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EStore, "fetch", recorded)
            dataset = LiveDeployment(DeploymentConfig.test_scale()).run()
        return dataset, quotes

    def test_every_verdict_matches_the_quotes(self, checked):
        dataset, quotes = checked
        assert len(dataset.results) >= 70
        for result in dataset.results:
            charged = quotes[(result.url, result.time)]
            assert len(charged) >= len(result.rows), result.job_id
            assert result.has_price_difference() == differs(
                relative_spread(charged)
            ), result.job_id
        # both verdicts occur, so the comparison is not vacuous
        assert {r.has_price_difference() for r in dataset.results} == {True, False}


class TestConfigs:
    def test_paper_scale_parameters(self):
        cfg = DeploymentConfig.paper_scale()
        assert cfg.n_users == 1265
        assert cfg.n_requests == 5700
        assert cfg.n_uniform_stores == 1900

    def test_test_scale_is_small(self):
        cfg = DeploymentConfig.test_scale()
        assert cfg.n_requests <= 100


class TestConfigSerialization:
    def test_round_trip_through_json(self):
        cfg = DeploymentConfig.test_scale()
        cfg.job_queue = True
        cfg.queue_depth = 32
        cfg.population = PopulationConfig(n_users=40)
        restored = DeploymentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored.to_dict() == cfg.to_dict()
        assert restored.ipc_sites == cfg.ipc_sites
        assert isinstance(restored.population, PopulationConfig)
        assert restored.population == cfg.population

    def test_defaults_round_trip(self):
        cfg = DeploymentConfig()
        assert DeploymentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(InvalidConfig, match="unknown deployment config key"):
            DeploymentConfig.from_dict({"bogus": 1})

    def test_unknown_population_key(self):
        with pytest.raises(InvalidConfig, match="unknown population config key"):
            DeploymentConfig.from_dict({"population": {"bogus": 1}})

    def test_non_object_rejected(self):
        with pytest.raises(InvalidConfig, match="JSON object"):
            DeploymentConfig.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "data",
        [
            {"n_users": 0},
            {"n_measurement_servers": 0},
            {"quorum": 0},
            {"duration_days": 0},
            {"page_cache_ttl": -1.0},
            {"queue_depth": 0},
            {"queue_steal_threshold": 0},
            {"job_queue": "yes"},
            {"chaos_profile": "not-a-profile"},
            {"db_backend": "postgres"},
            {"ipc_sites": [["ES", "Madrid"]]},
            {"spotlight_products": [["only-domain"]]},
            {"n_users": True},
        ],
    )
    def test_out_of_range_values_rejected(self, data):
        with pytest.raises(InvalidConfig):
            DeploymentConfig.from_dict(data)

    @pytest.mark.parametrize("name", KNOBS)
    def test_every_knob_reaches_the_sheriff(self, name):
        cfg = DeploymentConfig.test_scale()
        value = non_default(cfg, name)
        setattr(cfg, name, value)
        deployment = LiveDeployment(cfg)
        try:
            assert_knob_reached(deployment.sheriff, name, value)
        finally:
            deployment.sheriff.shutdown()

    def test_queue_depth_reaches_the_tier(self):
        cfg = DeploymentConfig.test_scale()
        cfg.job_queue = True
        cfg.queue_depth = 64
        cfg.queue_steal_threshold = 1_000
        tier = LiveDeployment(cfg).sheriff.job_queue
        assert tier.max_depth == 64
        assert tier.steal_threshold == 1_000

    def test_direct_deployment_has_no_tier(self, dataset):
        assert dataset.sheriff.job_queue is None


class TestAdoptionModel:
    def test_series_lengths(self):
        series = adoption_series(n_days=100)
        assert len(series.days) == len(series.daily_downloads) == 100
        assert len(series.active_users) == 100

    def test_three_spikes_visible(self):
        series = adoption_series(n_days=420)
        spikes = series.spike_days()
        # at least one spike day near each press event
        for event_day in (60, 180, 300):
            assert any(abs(d - event_day) <= 4 for d in spikes)

    def test_active_users_lag_downloads(self):
        series = adoption_series(n_days=420)
        # active users keep rising after the spike subsides
        assert series.active_users[200] > series.active_users[100]

    def test_non_negative(self):
        series = adoption_series(n_days=300)
        assert all(v >= 0 for v in series.daily_downloads)
        assert all(v >= 0 for v in series.active_users)

    def test_deterministic(self):
        a = adoption_series(n_days=50, seed=3)
        b = adoption_series(n_days=50, seed=3)
        assert a.daily_downloads == b.daily_downloads
