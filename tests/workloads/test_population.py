"""Tests for the user population generator."""

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.alexa import ContentWeb
from repro.workloads.population import Population, PopulationConfig
from repro.workloads.stores import build_named_stores


@pytest.fixture
def setup():
    world = SheriffWorld.create(seed=8)
    web = ContentWeb(world.internet, world.ecosystem, n_domains=40)
    build_named_stores(world)
    sheriff = PriceSheriff(world, n_measurement_servers=1,
                           ipc_sites=(("ES", "Madrid", 1.0),))
    return world, web, sheriff


class TestPopulation:
    def test_user_count(self, setup):
        world, web, sheriff = setup
        pop = Population(sheriff, web, PopulationConfig(n_users=60, seed=1))
        pop.build()
        assert len(pop.addons) == 60
        assert len(sheriff.addons) == 60

    def test_country_floors_respected(self, setup):
        """Floors scale with the population size (they are calibrated
        for the default 150-user run)."""
        world, web, sheriff = setup
        cfg = PopulationConfig(n_users=60, seed=1)
        pop = Population(sheriff, web, cfg)
        pop.build()
        for country, floor in cfg.min_users_per_country.items():
            effective = min(floor, max(2, round(floor * cfg.n_users / 150)))
            assert len(pop.by_country.get(country, [])) >= effective

    def test_spain_dominates(self, setup):
        """Table 2: Spain is the heaviest country by far."""
        world, web, sheriff = setup
        pop = Population(sheriff, web, PopulationConfig(n_users=100, seed=2))
        pop.build()
        assert len(pop.by_country.get("ES", [])) >= len(pop.by_country.get("DE", []))

    def test_users_have_browsing_history(self, setup):
        world, web, sheriff = setup
        pop = Population(sheriff, web, PopulationConfig(n_users=20, seed=3))
        pop.build()
        for addon in pop.addons:
            assert len(addon.browser.history.snapshot()) >= 15

    def test_donation_fraction(self, setup):
        world, web, sheriff = setup
        pop = Population(sheriff, web,
                         PopulationConfig(n_users=80, seed=4, donate_fraction=0.4))
        pop.build()
        donors = len(pop.donors())
        assert 15 <= donors <= 55  # ~0.4 · 80 with sampling noise

    def test_some_users_logged_into_amazon(self, setup):
        world, web, sheriff = setup
        pop = Population(
            sheriff, web,
            PopulationConfig(n_users=40, seed=5, login_fraction=0.6),
        )
        pop.build()
        logged = sum(
            1 for a in pop.addons
            if a.browser.cookies.value("amazon.com", "account") is not None
        )
        assert logged >= 5

    def test_users_registered_as_ppcs(self, setup):
        world, web, sheriff = setup
        pop = Population(sheriff, web, PopulationConfig(n_users=10, seed=6))
        pop.build()
        for addon in pop.addons:
            assert sheriff.overlay.location_of(addon.peer_id) is not None

    def test_deterministic(self, setup):
        world, web, sheriff = setup
        pop = Population(sheriff, web, PopulationConfig(n_users=15, seed=7))
        pop.build()
        countries_a = sorted(a.browser.location.country for a in pop.addons)

        world2 = SheriffWorld.create(seed=8)
        web2 = ContentWeb(world2.internet, world2.ecosystem, n_domains=40)
        build_named_stores(world2)
        sheriff2 = PriceSheriff(world2, n_measurement_servers=1,
                                ipc_sites=(("ES", "Madrid", 1.0),))
        pop2 = Population(sheriff2, web2, PopulationConfig(n_users=15, seed=7))
        pop2.build()
        countries_b = sorted(a.browser.location.country for a in pop2.addons)
        assert countries_a == countries_b
