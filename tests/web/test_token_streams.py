"""Tokens that reach pages or prices come from per-object named streams.

A store's session ids, a tracker's cookies and an account login are drawn
from streams named after the object that mints them, so a seeded run
reproduces in any process and no minter shifts another's tokens.  The
protocol credentials (doppelganger bearer tokens, circuit ids) stay
unguessable: two identically seeded deployments mint different ones.
"""

import random
from collections import Counter

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.profiles.vector import profile_from_counts
from repro.web.catalog import make_catalog
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore
from repro.web.trackers import Tracker
from repro.workloads.deployment import DeploymentConfig, LiveDeployment


def _store(world, domain):
    return EStore(
        domain=domain, country_code="US",
        catalog=make_catalog(domain, size=3, rng=random.Random(1)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
    )


def _sids(store, world, n, between=lambda: None):
    ctx = RequestContext(time=0.0, location=world.geodb.make_location("ES"))
    out = []
    for _ in range(n):
        out.append(store.fetch("/", ctx).set_cookies["sid"])
        between()
    return out


class TestNamedStreams:
    def test_sid_sequence_ignores_other_minters(self):
        world = SheriffWorld.create(seed=3)
        alone = _sids(_store(world, "a.example"), world, 5)

        other = _store(world, "b.example")
        tracker = Tracker("t.net")

        def mint_elsewhere():
            _sids(other, world, 2)
            tracker.observe(None, "b.example")

        interleaved = _sids(_store(world, "a.example"), world, 5, mint_elsewhere)
        assert interleaved == alone
        assert len(set(alone)) == 5

    def test_streams_are_named_by_domain(self):
        world = SheriffWorld.create(seed=3)
        assert (_sids(_store(world, "a.example"), world, 3)
                != _sids(_store(world, "b.example"), world, 3))
        assert (Tracker("t.net").observe(None, "x.example")
                == Tracker("t.net").observe(None, "y.example"))
        assert (Tracker("t.net").observe(None, "x.example")
                != Tracker("u.net").observe(None, "x.example"))

    def test_login_token_is_per_retailer_and_ip(self):
        world = SheriffWorld.create(seed=3)
        madrid = world.make_browser("ES", "Madrid")
        assert madrid.login("a.example") == madrid.login("a.example")
        assert madrid.login("a.example") != madrid.login("b.example")


def _deployment(seed):
    cfg = DeploymentConfig.test_scale()
    cfg.seed, cfg.n_requests, cfg.spotlight_checks = seed, 0, 0
    dep = LiveDeployment(cfg.validate())
    dep.population.build()
    rng = random.Random(seed)
    urls = []
    for _ in range(16):
        store = dep.stores[rng.choice(dep.specs).domain]
        product = store.catalog.sample(rng, 1)[0]
        urls.append((dep.population.pick_user(rng), store.product_url(product.product_id)))
    return dep, urls


def _landed(dep, result):
    """A check's rows and the stored pages they were read from."""
    store = dep.sheriff.diffstore
    pages = [store._reference.get(result.job_id)]
    pages += [store.restore(result.job_id, row.proxy_id)
              for row in result.rows if row.kind != "You"]
    return result.rows, pages


def test_interleaved_deployments_land_identical_rows():
    first, first_checks = _deployment(11)
    second, second_checks = _deployment(11)
    landed = ([], [])
    for (a, url_a), (b, url_b) in zip(first_checks, second_checks):
        assert url_a == url_b
        for dep, landed_of, addon, url in ((first, landed[0], a, url_a),
                                           (second, landed[1], b, url_b)):
            dep.world.clock.advance(60.0)
            landed_of.append(_landed(dep, addon.check_price(url)))
    assert landed[0] == landed[1]
    assert sum(len(rows) for rows, _ in landed[0]) > 16
    first.sheriff.shutdown()
    second.sheriff.shutdown()


def test_protocol_credentials_differ_between_identical_seeds():
    minted = []
    for _ in range(2):
        world = SheriffWorld.create(seed=5)
        sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=[])
        profile = profile_from_counts(Counter({"news.example": 3}), ["news.example"])
        (dopp,) = sheriff.dopp_manager.build_from_centroids([profile])
        circuit = sheriff.anonymity.build_circuit()
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        minted.append((dopp.dopp_id, circuit.circuit_id, addon.peer_id))
    (dopp_a, circuit_a, peer_a), (dopp_b, circuit_b, peer_b) = minted
    assert dopp_a != dopp_b
    assert circuit_a != circuit_b
    # peer ids are simulation identity, drawn from the world's seeded RNG
    assert peer_a == peer_b
