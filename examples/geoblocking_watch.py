#!/usr/bin/env python3
"""Beyond price discrimination: geoblocking and content watching.

The paper closes by noting that the $heriff's paradigm "can find
applications to domains beyond price discrimination, such as
geoblocking, automatic personalisation, and filter-bubble detection."
This example exercises both extensions over the same vantage-point
fleet:

1. a retailer that refuses to serve two countries → the geoblock
   scanner maps exactly which countries are walled off;
2. a retailer that localizes page content per country → the content
   watch records a Tags Path to an arbitrary element and classifies
   the variation as localized vs personalized.

Run with:  python examples/geoblocking_watch.py
"""

import random

from repro.core.addon import SheriffAddon
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.extensions.contentdiff import ContentWatch
from repro.extensions.geoblock import GeoblockScanner
from repro.web.catalog import make_catalog
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore


def main() -> None:
    world = SheriffWorld.create(seed=31)

    walled = EStore(
        domain="walled-garden.example", country_code="US",
        catalog=make_catalog("walled-garden.example", size=4,
                             rng=random.Random(1)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        blocked_countries=("DE", "FR", "ES"),
    )
    localized = EStore(
        domain="localized.example", country_code="US",
        catalog=make_catalog("localized.example", size=4,
                             rng=random.Random(2)),
        pricing=CountryMultiplierPricing({"JP": 1.3, "CA": 1.2}),
        geodb=world.geodb, rates=world.rates,
        currency_strategy="geo",
    )
    world.internet.register(walled)
    world.internet.register(localized)
    sheriff = PriceSheriff(world, n_measurement_servers=1)

    # 1. who is walled off?
    scanner = GeoblockScanner(sheriff)
    report = scanner.scan(
        walled.product_url(walled.catalog.products[0].product_id)
    )
    print(report.render())
    print()

    # 2. does the selected element differ across locations?
    watch = ContentWatch(sheriff)
    url = localized.product_url(localized.catalog.products[0].product_id)
    browser = world.make_browser("US", "Tennessee")
    response = browser.visit(url)
    path = watch.record_path(response.html, SheriffAddon.select_price_element)
    content_report = watch.check(url, path)
    print(content_report.render())


if __name__ == "__main__":
    main()
