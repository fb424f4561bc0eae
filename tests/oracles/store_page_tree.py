"""The tree-building product page (test oracle).

Builds the whole ``Element`` tree of a product page for every request
and serializes it recursively — what :class:`repro.web.store.EStore`
did before it compiled one skeleton per product and filled three holes
per request.  ``tests/web/test_store_page_identity.py`` asserts the
store's page equals this one byte for byte.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.web.catalog import Product
from repro.web.html import Element, render
from repro.web.pricing import PriceQuote, RequestContext, stable_rng
from repro.web.store import EStore


def _banner(store: EStore, rng: random.Random) -> Element:
    banner = Element("div", {"class": "banner"})
    if rng.random() < store._banner_has_price_prob:
        # An ad that itself contains a price — a decoy for extraction.
        deal = rng.choice(list(store.catalog))
        code = store._geodb.country(store.country_code).currency
        text = store._price_text(round(deal.base_price_eur * 0.8, 2), code)
        banner.append(Element("span", {"class": "ad-copy"}, [f"Deal of the hour: {text}"]))
    else:
        banner.append(Element("span", {"class": "ad-copy"}, [f"ad-{rng.randint(1000, 9999)}"]))
    return banner


def _related_strip(
    store: EStore, product: Product, ctx: RequestContext, rng: random.Random
) -> Element:
    related = Element("div", {"class": "related"})
    others = [p for p in store.catalog if p.product_id != product.product_id]
    lo, hi = store._related_count_range
    count = min(len(others), rng.randint(lo, hi))
    for other in rng.sample(others, count):
        quote = store.pricing.quote(other, ctx)
        amount, code = store.displayed_price(quote, ctx)
        item = Element("div", {"class": "item"})
        item.append(Element("span", {"class": "name"}, [other.name]))
        item.append(Element("span", {"class": store.price_class}, [store._price_text(amount, code)]))
        related.append(item)
    return related


def render_product_page(
    store: EStore, product: Product, ctx: RequestContext
) -> Tuple[str, PriceQuote, float, str]:
    """Build the HTML for a product page under this request context."""
    quote = store.pricing.quote(product, ctx)
    amount, code = store.displayed_price(quote, ctx)
    # Per-request variation RNG (ads, related products).
    rng = stable_rng("page", store.domain, product.product_id, ctx.time,
                     ctx.client_key, ctx.request_nonce)

    head = Element("head")
    head.append(Element("title", children=[f"{product.name} — {store.domain}"]))
    head.append(Element("meta", {"charset": "utf-8"}))

    nav = Element("div", {"class": "nav"})
    for i in range(store._nav_items):
        nav.append(Element("a", {"href": f"/cat/{i}"}, [f"Category {i}"]))

    product_div = Element("div", {"class": "product", "id": f"p-{product.product_id}"})
    product_div.append(Element("h1", {"class": "title"}, [product.name]))
    product_div.append(
        Element("img", {"src": f"/img/{product.product_id}.jpg", "alt": product.name})
    )
    product_div.append(
        Element("span", {"class": store.price_class}, [store._price_text(amount, code)])
    )
    product_div.append(
        Element("div", {"class": "description"},
                [f"{product.name} in category {product.category}."])
    )

    main = Element("div", {"class": "main"})
    main.append(product_div)
    main.append(_related_strip(store, product, ctx, rng))

    footer = Element("div", {"class": "footer"})
    footer.append(Element("span", {"class": "copyright"}, [f"© {store.domain}"]))
    for tracker in store.tracker_domains:
        footer.append(Element("img", {"src": f"https://{tracker}/pixel.gif",
                                      "class": "tracker-pixel"}))

    body = Element("body")
    body.extend([Element("div", {"class": "header"},
                         [Element("span", {"class": "logo"}, [store.domain])]),
                 nav, _banner(store, rng), main, footer])

    doc = Element("html", children=[head, body])
    return render(doc), quote, amount, code
