"""The Sect. 3.2 discussion: retailers rate-limiting measurement IPs.

"The IPCs are more prone to detection since their IP addresses are
usually the same over time … the retailer may block the IPC request or
introduce a CAPTCHA.  On the other hand, PPCs are more diverse in IP
addresses … detecting and blocking the PPCs requests is very
difficult."
"""

import random

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.web.catalog import make_catalog
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore


@pytest.fixture
def world():
    return SheriffWorld.create(seed=44)


def build_store(world, bot_detection):
    store = EStore(
        domain="defended.example", country_code="ES",
        catalog=make_catalog("defended.example", size=6,
                             rng=random.Random(1)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        bot_detection=bot_detection,
    )
    world.internet.register(store)
    return store


class TestFrequencyThreshold:
    def test_captcha_after_threshold(self, world):
        store = build_store(world, bot_detection=(3, 3600.0))
        loc = world.geodb.make_location("ES")
        url_path = f"/product/{store.catalog.products[0].product_id}"
        for i in range(3):
            ctx = RequestContext(time=float(i), location=loc)
            assert store.fetch(url_path, ctx).status == 200
        blocked = store.fetch(url_path, RequestContext(time=4.0, location=loc))
        assert blocked.status == 429
        assert "CAPTCHA" in blocked.html
        assert store.captchas_served == 1

    def test_window_expiry_resets(self, world):
        store = build_store(world, bot_detection=(2, 10.0))
        loc = world.geodb.make_location("ES")
        path = f"/product/{store.catalog.products[0].product_id}"
        store.fetch(path, RequestContext(time=0.0, location=loc))
        store.fetch(path, RequestContext(time=1.0, location=loc))
        assert store.fetch(path, RequestContext(time=2.0, location=loc)).status == 429
        # the window slides: after 10s the budget replenishes
        assert store.fetch(path, RequestContext(time=20.0, location=loc)).status == 200

    def test_distinct_ips_independent(self, world):
        store = build_store(world, bot_detection=(2, 3600.0))
        path = f"/product/{store.catalog.products[0].product_id}"
        for _ in range(4):
            loc = world.geodb.make_location("ES")  # fresh IP each time
            assert store.fetch(path, RequestContext(time=0.0, location=loc)).status == 200
        assert store.captchas_served == 0

    def test_disabled_by_default(self, world):
        store = build_store(world, bot_detection=None)
        loc = world.geodb.make_location("ES")
        path = f"/product/{store.catalog.products[0].product_id}"
        for i in range(20):
            assert store.fetch(path, RequestContext(time=float(i),
                                                    location=loc)).status == 200


class TestSheriffUnderCountermeasures:
    def test_ipc_gets_captchad_ppcs_survive(self, world):
        """Heavy crawling burns the fixed-IP IPC; the user-IP PPCs keep
        providing measurement points — the paper's resilience argument."""
        store = build_store(world, bot_detection=(6, 86_400.0))
        sheriff = PriceSheriff(
            world, n_measurement_servers=1,
            ipc_sites=(("ES", "Madrid", 1.0),),
            max_ppcs_per_request=3,
        )
        # "PPCs … are greater in number": randomized selection spreads
        # the 8 checks over 8 peers, so no single user IP trips the
        # threshold — while the lone fixed-IP IPC serves all 8
        peers = [
            sheriff.install_addon(world.make_browser("ES", "Madrid"))
            for _ in range(8)
        ]
        # two users issue 4 checks each: every *user* IP stays under the
        # budget, but the single fixed-IP IPC fetches for all 8 checks
        initiators = [
            sheriff.install_addon(world.make_browser("ES", "Barcelona"),
                                  serve_as_ppc=False)
            for _ in range(2)
        ]
        results = []
        for i in range(8):
            product = store.catalog.products[i % len(store.catalog)]
            results.append(
                initiators[i % 2].check_price(
                    store.product_url(product.product_id)
                )
            )
        # the single IPC exceeded the per-IP budget at some point
        assert store.captchas_served > 0
        late = results[-1]
        kinds_ok = {r.kind for r in late.valid_rows()}
        # PPC (and initiator) points survive even when the IPC is blocked
        assert "PPC" in kinds_ok
        assert "You" in kinds_ok
        # a CAPTCHA page simply yields an error row, not a crash
        ipc_rows = [r for r in late.rows if r.kind == "IPC"]
        assert all(not r.ok for r in ipc_rows)
