"""Simulated web: HTML documents, e-stores, trackers, pricing policies.

The $heriff only ever observes fetched HTML.  This package provides the
synthetic internet that stands in for the real e-commerce web: stores
render genuine HTML product pages (with the confounders the paper calls
out — multiple prices per page, ad blocks that change between fetches,
divergent currency notations) under configurable pricing policies, and a
third-party tracker ecosystem builds the server-side profiles that could
drive PDI-PD.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".html": [
        "Element", "HTMLParseError", "find_all", "iter_elements", "parse", "render",
        "text_of",
    ],
    ".catalog": ["Catalog", "Product", "make_catalog"],
    ".trackers": ["Tracker", "TrackerEcosystem"],
    ".pricing": [
        "ABTestPricing", "PerCountryABTestPricing", "ProductCountryJitterPricing",
        "CompositePricing", "CountryMultiplierPricing", "PdiPdPricing", "PriceQuote",
        "PricingPolicy", "RequestContext", "TemporalDriftPricing", "UniformPricing",
        "VatInclusivePricing",
    ],
    ".store": ["EStore", "StoreResponse"],
    ".internet": ["ContentSite", "Internet", "parse_url"],
})
