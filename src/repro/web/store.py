"""The simulated e-commerce retailer.

An :class:`EStore` serves genuine HTML product pages.  Everything the
paper identifies as making price extraction non-trivial is reproduced:

* multiple prices on the same page (a "related products" strip and a
  rotating ad banner that can itself contain a price);
* page content that varies between fetches — ads and the related strip
  are sampled per request, so two proxies never receive byte-identical
  documents;
* store-specific price markup (class name, currency notation, grouping,
  decimals) and store-specific currency behaviour — a store can quote in
  its home currency or geo-localize the currency from the client's IP,
  using its *own* (slightly skewed) converter, one of the benign sources
  of cross-country variation;
* first-party session cookies and embedded third-party trackers;
* server-side state per identified client (pages viewed per product),
  which is exactly the state the doppelganger machinery protects.

A page is a skeleton plus three holes.  The first request for a product
builds the page's :class:`~repro.web.html.Element` tree once, with a
marker where the ad copy, the product's price text and the related
strip go, serializes it and keeps the four strings around the markers
(:class:`_PageSkeleton`): head, header, nav, product block, footer and
tracker pixels are fixed from then on, as are the store's domain and
``price_class`` and the catalog's other products with their
``div.item`` markup.  Every request then samples the related strip and
the banner, quotes and formats the prices — ``pricing``,
``price_style`` and ``display_decimals`` are read each time, so setting
them on a live store works — and joins seven strings.  The page is
byte for byte what building and serializing the whole tree per request
produces; ``tests/oracles/store_page_tree.py`` is that version and
``tests/web/test_store_page_identity.py`` holds the two together.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.currency.codes import CURRENCIES
from repro.currency.detect import format_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import Catalog, Product
from repro.web.html import Element, render
from repro.web.pricing import PriceQuote, PricingPolicy, RequestContext, stable_rng

#: price markup classes stores choose from (the $heriff must not assume one)
PRICE_CLASSES = ("price", "product-price", "amount", "sale-price")
PRICE_STYLES = ("symbol", "iso_tight", "iso_space", "custom",
                "symbol_suffix", "continental")


@dataclass
class StoreResponse:
    """What a client receives for one product-page request."""

    url: str
    status: int
    html: str
    set_cookies: Dict[str, str]
    tracker_domains: Tuple[str, ...]
    # Ground-truth oracle fields (never read by the $heriff itself; used
    # by tests and experiment validation):
    quote: Optional[PriceQuote] = None
    displayed_amount: Optional[float] = None
    displayed_currency: Optional[str] = None


# The related strip is written straight to text, in the serializer's
# layout for html > body > div.main > div.related > div.item:
_ITEM_PAD = "  " * 4
#: what follows an item's price text
_ITEM_CLOSE = f"</span>\n{_ITEM_PAD}</div>"
#: what precedes ``</div>`` of a strip that has items (it closes on a
#: line of its own; an empty strip stays ``<div class="related"></div>``)
_STRIP_CLOSE_PAD = "\n" + "  " * 3


@dataclass(frozen=True)
class _PageSkeleton:
    """The request-independent text of one product page, cut at its holes.

    A page is ``to_banner`` + ad copy + ``to_price`` + price text +
    ``to_related`` + related strip + ``tail``.
    """

    to_banner: str
    to_price: str
    to_related: str
    tail: str
    #: every other product of the catalog with its ``div.item`` markup
    #: up to the price text
    related_pool: Tuple[Tuple[Product, str], ...]


class EStore:
    """One retailer domain on the simulated internet."""

    def __init__(
        self,
        domain: str,
        country_code: str,
        catalog: Catalog,
        pricing: PricingPolicy,
        geodb: GeoDatabase,
        rates: ExchangeRateProvider,
        tracker_domains: Sequence[str] = (),
        currency_strategy: str = "local",  # or "geo"
        converter_skew: float = 1.0,
        layout_seed: int = 0,
        display_decimals: Optional[int] = None,
        tracking: str = "cookie",
        blocked_countries: Sequence[str] = (),
        bot_detection: Optional[Tuple[int, float]] = None,
    ) -> None:
        if currency_strategy not in ("local", "geo"):
            raise ValueError(f"unknown currency strategy {currency_strategy!r}")
        if tracking not in ("cookie", "ip", "fingerprint"):
            raise ValueError(f"unknown tracking mode {tracking!r}")
        self.domain = domain
        self.country_code = country_code
        self.catalog = catalog
        self.pricing = pricing
        self._geodb = geodb
        self._rates = rates
        self.tracker_domains = tuple(tracker_domains)
        self.currency_strategy = currency_strategy
        self.converter_skew = converter_skew
        self.display_decimals = display_decimals
        #: how the retailer identifies visitors for server-side state.
        #: ``cookie`` (default) trusts the session cookie — what
        #: doppelgangers shield.  ``ip`` and ``fingerprint`` key the
        #: state on properties a doppelganger cannot mask (the paper's
        #: footnote-2 caveat in Sect. 3.6.2).
        self.tracking = tracking
        #: countries this retailer refuses to serve (the geoblocking
        #: behaviour the watchdog paradigm extends to, Sect. 1)
        self.blocked_countries = frozenset(blocked_countries)
        #: optional ``(max_requests, window_seconds)``: the frequency
        #: threshold of the Sect. 3.2 discussion — "a retailer can
        #: detect any abnormal activity of the IPC by counting the
        #: frequency of the visits from the same IP … then the retailer
        #: may block the IPC request or introduce a CAPTCHA."
        self.bot_detection = bot_detection
        self._ip_hits: Dict[str, List[float]] = {}
        self.captchas_served = 0

        # Deterministic per-store layout/markup choices.
        layout_rng = stable_rng("layout", domain, layout_seed)
        self.price_class = layout_rng.choice(PRICE_CLASSES)
        self.price_style = layout_rng.choice(PRICE_STYLES)
        self._nav_items = layout_rng.randint(3, 6)
        self._related_count_range = (2, 2 + layout_rng.randint(1, 3))
        self._banner_has_price_prob = layout_rng.uniform(0.2, 0.6)

        # Server-side state: client identity → product → visit count.
        self.server_state: Dict[str, Counter] = {}
        self.request_log: List[Tuple[float, str, str]] = []

        # Page skeletons, compiled at the first request for a product.
        self._pages: Dict[Product, _PageSkeleton] = {}

        # Session ids: a stream named after this store, so no other
        # store's or tracker's tokens shift them.
        self._sids = random.Random(f"sid:{domain}")

    # -- currency --------------------------------------------------------
    def display_currency(self, ctx: RequestContext) -> str:
        if self.currency_strategy == "geo":
            try:
                return self._geodb.country(ctx.location.country).currency
            except KeyError:
                pass
        return self._geodb.country(self.country_code).currency

    def displayed_price(self, quote: PriceQuote, ctx: RequestContext) -> Tuple[float, str]:
        """Convert the EUR quote into the currency shown to this client."""
        code = self.display_currency(ctx)
        amount = self._rates.convert(quote.amount_eur, "EUR", code, ctx.time)
        amount *= self.converter_skew
        decimals = (
            self.display_decimals
            if self.display_decimals is not None
            else CURRENCIES[code].decimals
        )
        return round(amount, decimals), code

    # -- server-side state -------------------------------------------------
    def tracking_key(self, ctx: RequestContext) -> str:
        """The identity this retailer keys server-side state on."""
        if self.tracking == "ip":
            return ctx.location.ip
        if self.tracking == "fingerprint":
            # device/browser fingerprint: stable across cookie wipes
            digest = hashlib.sha256(
                f"{ctx.user_agent}|{ctx.location.ip}".encode()
            ).hexdigest()
            return f"fp-{digest[:16]}"
        return ctx.client_key

    def _bot_detected(self, ctx: RequestContext) -> bool:
        """Per-IP frequency check (the anti-measurement countermeasure)."""
        if self.bot_detection is None:
            return False
        max_requests, window = self.bot_detection
        hits = self._ip_hits.setdefault(ctx.location.ip, [])
        hits[:] = [t for t in hits if ctx.time - t < window]
        if len(hits) >= max_requests:
            return True
        hits.append(ctx.time)
        return False

    def record_visit(self, ctx: RequestContext, product_id: str) -> None:
        key = self.tracking_key(ctx)
        self.server_state.setdefault(key, Counter())[product_id] += 1
        self.request_log.append((ctx.time, key, product_id))

    def visits_for(self, client_key: str) -> Counter:
        return Counter(self.server_state.get(client_key, Counter()))

    # -- page rendering ------------------------------------------------------
    def _price_text(self, amount: float, code: str) -> str:
        decimals = (
            self.display_decimals
            if self.display_decimals is not None
            else CURRENCIES[code].decimals
        )
        return format_price(amount, code, style=self.price_style, decimals=decimals)

    def _related_text(
        self, page: _PageSkeleton, ctx: RequestContext, rng: random.Random
    ) -> str:
        """What goes between ``<div class="related">`` and its ``</div>``."""
        lo, hi = self._related_count_range
        count = min(len(page.related_pool), rng.randint(lo, hi))
        parts: List[str] = []
        for other, to_price in rng.sample(page.related_pool, count):
            quote = self.pricing.quote(other, ctx)
            amount, code = self.displayed_price(quote, ctx)
            parts += (to_price, self._price_text(amount, code), _ITEM_CLOSE)
        if parts:
            parts.append(_STRIP_CLOSE_PAD)
        return "".join(parts)

    def _banner_text(self, rng: random.Random) -> str:
        """The ad copy of this request's banner."""
        if rng.random() < self._banner_has_price_prob:
            # An ad that itself contains a price — a decoy for extraction.
            deal = rng.choice(list(self.catalog))
            code = self._geodb.country(self.country_code).currency
            text = self._price_text(round(deal.base_price_eur * 0.8, 2), code)
            return f"Deal of the hour: {text}"
        return f"ad-{rng.randint(1000, 9999)}"

    def _page_tree(self, product: Product, hole: str) -> Element:
        """The product page with ``hole`` where request-dependent text goes."""
        head = Element("head")
        head.append(Element("title", children=[f"{product.name} — {self.domain}"]))
        head.append(Element("meta", {"charset": "utf-8"}))

        nav = Element("div", {"class": "nav"})
        for i in range(self._nav_items):
            nav.append(Element("a", {"href": f"/cat/{i}"}, [f"Category {i}"]))

        banner = Element("div", {"class": "banner"},
                         [Element("span", {"class": "ad-copy"}, [hole])])

        product_div = Element("div", {"class": "product", "id": f"p-{product.product_id}"})
        product_div.append(Element("h1", {"class": "title"}, [product.name]))
        product_div.append(
            Element("img", {"src": f"/img/{product.product_id}.jpg", "alt": product.name})
        )
        product_div.append(Element("span", {"class": self.price_class}, [hole]))
        product_div.append(
            Element("div", {"class": "description"},
                    [f"{product.name} in category {product.category}."])
        )

        main = Element("div", {"class": "main"})
        main.append(product_div)
        main.append(Element("div", {"class": "related"}, [hole]))

        footer = Element("div", {"class": "footer"})
        footer.append(Element("span", {"class": "copyright"}, [f"© {self.domain}"]))
        for tracker in self.tracker_domains:
            footer.append(Element("img", {"src": f"https://{tracker}/pixel.gif",
                                          "class": "tracker-pixel"}))

        body = Element("body")
        body.extend([Element("div", {"class": "header"},
                             [Element("span", {"class": "logo"}, [self.domain])]),
                     nav, banner, main, footer])
        return Element("html", children=[head, body])

    def _compile_page(self, product: Product) -> _PageSkeleton:
        """Serialize everything about a product page that no request changes."""
        # Cut the document at a marker that occurs nowhere else in it, so
        # no product name, domain or tracker string passes for a hole.
        marker = "\x00"
        while True:
            pieces = render(self._page_tree(product, marker)).split(marker)
            if len(pieces) == 4:
                break
            marker += "\x00"
        # The strip's items are written per request, as the serializer
        # would write them; only the part before the price is fixed.
        pool = tuple(
            (other,
             f'\n{_ITEM_PAD}<div class="item">'
             f'\n{_ITEM_PAD}  <span class="name">{other.name}</span>'
             f'\n{_ITEM_PAD}  <span class="{self.price_class}">')
            for other in self.catalog
            if other.product_id != product.product_id
        )
        return _PageSkeleton(*pieces, pool)

    def render_product_page(
        self, product: Product, ctx: RequestContext
    ) -> Tuple[str, PriceQuote, float, str]:
        """Build the HTML for a product page under this request context."""
        quote = self.pricing.quote(product, ctx)
        amount, code = self.displayed_price(quote, ctx)
        page = self._pages.get(product)
        if page is None:
            page = self._pages[product] = self._compile_page(product)
        # Per-request variation RNG: the related strip draws first, then
        # the banner.
        rng = stable_rng("page", self.domain, product.product_id, ctx.time,
                         ctx.client_key, ctx.request_nonce)
        price = self._price_text(amount, code)
        related = self._related_text(page, ctx, rng)
        banner = self._banner_text(rng)
        html = "".join((page.to_banner, banner, page.to_price, price,
                        page.to_related, related, page.tail))
        return html, quote, amount, code

    @cached_property
    def _home_page(self) -> str:
        return render(Element("html", children=[
            Element("head", children=[Element("title", children=[self.domain])]),
            Element("body", children=[Element("div", {"class": "home"}, [self.domain])]),
        ]))

    # -- the HTTP-ish entry point -------------------------------------------
    def fetch(self, path: str, ctx: RequestContext) -> StoreResponse:
        """Serve a request for ``path`` as seen from ``ctx``."""
        if ctx.location.country in self.blocked_countries:
            return StoreResponse(
                url=f"http://{self.domain}{path}", status=451,
                html=(
                    "<html><head><title>Unavailable</title></head><body>"
                    '<div class="blocked">This content is not available in '
                    "your region.</div></body></html>"
                ),
                set_cookies={}, tracker_domains=(),
            )
        if self._bot_detected(ctx):
            self.captchas_served += 1
            return StoreResponse(
                url=f"http://{self.domain}{path}", status=429,
                html=(
                    "<html><head><title>Are you human?</title></head><body>"
                    '<div class="captcha">Please solve this CAPTCHA to '
                    "continue.</div></body></html>"
                ),
                set_cookies={}, tracker_domains=(),
            )
        set_cookies: Dict[str, str] = {}
        if "sid" not in ctx.first_party_cookies:
            set_cookies["sid"] = self._sids.randbytes(8).hex()
        if not path.startswith("/product/"):
            return StoreResponse(
                url=f"http://{self.domain}{path}", status=200, html=self._home_page,
                set_cookies=set_cookies, tracker_domains=self.tracker_domains,
            )
        product = self.catalog.get(path[len("/product/"):])
        if product is None:
            return StoreResponse(
                url=f"http://{self.domain}{path}", status=404,
                html="<html><head><title>404</title></head><body><div>not found</div></body></html>",
                set_cookies=set_cookies, tracker_domains=self.tracker_domains,
            )
        html, quote, amount, code = self.render_product_page(product, ctx)
        self.record_visit(ctx, product.product_id)
        return StoreResponse(
            url=f"http://{self.domain}{path}",
            status=200,
            html=html,
            set_cookies=set_cookies,
            tracker_domains=self.tracker_domains,
            quote=quote,
            displayed_amount=amount,
            displayed_currency=code,
        )

    def product_url(self, product_id: str) -> str:
        return f"http://{self.domain}/product/{product_id}"

    # -- search & steering ---------------------------------------------------
    def search(self, query: str, ctx: RequestContext) -> List[Product]:
        """Rank the catalog for a search query, possibly *steered*.

        Price steering (Sect. 2): "showing different products (or the
        same products in a different order) to distinct users for the
        same search query."  With a steering policy configured (see
        :meth:`enable_steering`), identified high-value visitors get the
        expensive half of the inventory ranked first; everyone else gets
        a price-ascending ranking.
        """
        matching = [
            p for p in self.catalog
            if query.lower() in p.name.lower()
            or query.lower() in p.category.lower()
        ] or list(self.catalog)
        steering = getattr(self, "_steering", None)
        if steering is not None and steering.steers(ctx):
            return sorted(matching, key=lambda p: -p.base_price_eur)
        return sorted(matching, key=lambda p: p.base_price_eur)

    def enable_steering(self, steering: "SteeringPolicy") -> None:
        self._steering = steering


class SteeringPolicy:
    """Decides which visitors get the steered (expensive-first) ranking.

    Mirrors :class:`repro.web.pricing.PdiPdPricing`: the signal is the
    tracker-built browsing profile.
    """

    def __init__(self, ecosystem, trigger_domains: Sequence[str],
                 min_hits: int = 3) -> None:
        self._ecosystem = ecosystem
        self.trigger_domains = tuple(trigger_domains)
        self.min_hits = min_hits

    def steers(self, ctx: RequestContext) -> bool:
        profile = self._ecosystem.profile_across_trackers(ctx.tracker_cookies)
        hits = sum(profile.get(d, 0) for d in self.trigger_domains)
        return hits >= self.min_hits
