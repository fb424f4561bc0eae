"""Tests for pollution budgets and doppelganger lifecycle."""

from collections import Counter

import pytest

from repro.profiles.doppelganger import (
    Doppelganger,
    DoppelgangerManager,
    PollutionBudget,
    make_dopp_id,
)
from repro.profiles.vector import profile_from_counts


class TestPollutionBudget:
    def test_unvisited_domain_always_allowed(self):
        budget = PollutionBudget()
        for _ in range(10):
            assert budget.can_use_real_profile("never.com", 0)
            budget.record_real_use("never.com")

    def test_one_in_four_rule(self):
        budget = PollutionBudget()
        # user has 8 organic product views → 2 tunneled requests allowed
        assert budget.can_use_real_profile("shop.com", 8)
        budget.record_real_use("shop.com")
        assert budget.can_use_real_profile("shop.com", 8)
        budget.record_real_use("shop.com")
        assert not budget.can_use_real_profile("shop.com", 8)

    def test_below_four_visits_no_allowance(self):
        budget = PollutionBudget()
        assert not budget.can_use_real_profile("shop.com", 3)

    def test_allowance_grows_with_organic_visits(self):
        budget = PollutionBudget()
        budget.record_real_use("shop.com")
        budget.record_real_use("shop.com")
        assert not budget.can_use_real_profile("shop.com", 8)
        # more organic browsing re-opens the budget
        assert budget.can_use_real_profile("shop.com", 12)

    def test_budgets_are_per_domain(self):
        budget = PollutionBudget()
        budget.record_real_use("a.com")
        assert budget._used["a.com"] == 1
        assert budget._used["b.com"] == 0


def make_dopp(creation_visits):
    profile = profile_from_counts(Counter(), ["x.com"])
    return Doppelganger(
        dopp_id=make_dopp_id(),
        cluster_index=0,
        profile=profile,
        client_state={},
        creation_visits=Counter(creation_visits),
    )


class TestDoppelgangerBudget:
    def test_one_in_four_on_creation_visits(self):
        dopp = make_dopp({"shop.com": 8})
        assert not dopp.is_saturated("shop.com")
        dopp.record_serve("shop.com")
        dopp.record_serve("shop.com")
        assert dopp.is_saturated("shop.com")

    def test_low_visit_domain_saturates_immediately(self):
        dopp = make_dopp({"tiny.com": 2})
        assert dopp.is_saturated("tiny.com")

    def test_saturation_fraction(self):
        dopp = make_dopp({"a.com": 8, "b.com": 8})
        assert dopp.saturated_fraction() == 0.0
        dopp.record_serve("a.com")
        dopp.record_serve("a.com")
        assert dopp.saturated_fraction() == 0.5
        assert dopp.needs_regeneration()

    def test_no_visits_no_saturation(self):
        assert make_dopp({}).saturated_fraction() == 0.0


class TestManager:
    @pytest.fixture
    def manager(self, internet, ecosystem, clock, geodb):
        return DoppelgangerManager(
            internet=internet, ecosystem=ecosystem, clock=clock, geodb=geodb,
            visits_scale=8,
        )

    @pytest.fixture
    def centroid_profile(self):
        counts = Counter({"news.example": 8, "blog.example": 4})
        return profile_from_counts(
            counts, ["news.example", "blog.example", "missing.example"]
        )

    def test_build_creates_one_per_centroid(self, manager, centroid_profile):
        dopps = manager.build_from_centroids([centroid_profile, centroid_profile])
        assert len(dopps) == 2
        assert len(manager.doppelgangers()) == 2

    def test_training_visits_proportional(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        assert dopp.creation_visits["news.example"] == 8
        assert dopp.creation_visits["blog.example"] == 4
        # unregistered domains are skipped
        assert dopp.creation_visits["missing.example"] == 0

    def test_client_state_accumulated(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        # content sites embed google-analytics; the doppelganger must
        # have picked up its tracker cookie
        assert "google-analytics.com" in dopp.client_state

    def test_dopp_id_is_256_bit(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        assert len(dopp.dopp_id) == 64  # hex chars

    def test_bearer_token_lookup(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        assert manager.client_state_for(dopp.dopp_id) == dopp.client_state
        with pytest.raises(KeyError):
            manager.client_state_for("wrong-token")

    def test_cluster_mapping(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        assert manager.id_for_cluster(0) == dopp.dopp_id
        with pytest.raises(KeyError):
            manager.id_for_cluster(99)

    def test_regeneration_on_saturation(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        old_id = dopp.dopp_id
        # exhaust both visited domains: 8//4=2 and 4//4=1 serves
        manager.record_serve(old_id, "news.example")
        manager.record_serve(old_id, "news.example")  # news saturated (1/2 domains)
        fresh_id = manager.id_for_cluster(0)
        assert fresh_id != old_id
        fresh = manager.get(fresh_id)
        assert fresh.generation == 1
        assert fresh.serve_used == Counter()

    def test_regenerated_state_is_fresh(self, manager, centroid_profile):
        (dopp,) = manager.build_from_centroids([centroid_profile])
        old_state = dopp.client_state
        fresh = manager.regenerate(dopp.dopp_id)
        # new tracker cookies were issued during retraining
        assert fresh.client_state != old_state
