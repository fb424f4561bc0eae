#!/usr/bin/env python3
"""Quickstart: stand up a Price $heriff deployment and run a price check.

This walks through the whole Fig. 1 pipeline on a small simulated world:

1. create the simulated environment (geo database, exchange rates,
   tracker ecosystem, internet);
2. register an e-commerce store that price-discriminates by country;
3. start a $heriff deployment (Coordinator, Measurement servers, the
   IPC fleet, the P2P overlay);
4. install the add-on for a user in Spain plus a few peers;
5. run a price check and print the Fig. 2-style result page;
6. classify the observed variation.

Run with:  python examples/quickstart.py
"""

import random

from repro.core.detector import analyze_rows
from repro.core.monitoring import peers_panel, servers_panel
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.web.catalog import make_catalog
from repro.web.pricing import CountryMultiplierPricing
from repro.web.store import EStore


def main() -> None:
    # 1. the simulated world
    world = SheriffWorld.create(seed=42)

    # 2. a retailer that charges Canadians 30% and Japanese 15% more
    store = EStore(
        domain="camera-store.example",
        country_code="US",
        catalog=make_catalog("camera-store.example", size=6,
                             rng=random.Random(1),
                             categories=["electronics"]),
        pricing=CountryMultiplierPricing({"CA": 1.30, "JP": 1.15}),
        geodb=world.geodb,
        rates=world.rates,
        tracker_domains=("doubleclick.net",),
        currency_strategy="geo",  # prices shown in the visitor's currency
    )
    world.internet.register(store)

    # 3. the deployment: 2 Measurement servers + the 30-node IPC fleet
    sheriff = PriceSheriff(world, n_measurement_servers=2)

    # 4. the initiating user in Madrid, plus peers that serve as PPCs
    user = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    for city in ("Barcelona", "Valencia"):
        sheriff.install_addon(world.make_browser("ES", city))

    # 5. the price check (steps 1–5 of Fig. 1)
    product = store.catalog.products[0]
    result = user.check_price(store.product_url(product.product_id),
                              requested_currency="EUR")
    print(result.render_result_page())
    print()

    # 6. what kind of price variation is this?
    report = analyze_rows(result.rows, world.geodb)
    print(f"classification: {report.classification}")
    print(f"overall spread: {100 * report.overall_spread:.1f}%")
    print(f"cross-country spread: {100 * report.cross_country_spread:.1f}%")
    print()

    # bonus: the admin panels of Figs. 7 and 16
    print(servers_panel(sheriff.coordinator))
    print()
    print(peers_panel(sheriff.overlay, self_peer_id=user.peer_id))


if __name__ == "__main__":
    main()
