"""Extensions beyond price discrimination.

The paper's closing argument (Sect. 1): "our system's paradigm can find
applications to domains beyond price discrimination, such as
geoblocking, automatic personalisation, and filter-bubble detection."
This package applies the same vantage-point machinery to three of those:

* :mod:`repro.extensions.geoblock` — which countries can see a page at
  all (HTTP 451/403-style refusals per vantage point);
* :mod:`repro.extensions.contentdiff` — generalized Tags-Path content
  comparison: does an arbitrarily selected page element differ across
  locations (automatic personalisation / localized content)?
* :mod:`repro.extensions.steering` — the same search query from several
  profiles, rankings compared by Kendall-tau: the price-steering sensor
  the paper says the $heriff lacks.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".geoblock": ["GeoblockReport", "GeoblockScanner"],
    ".contentdiff": ["ContentVariationReport", "ContentWatch"],
    ".steering": ["SteeringReport", "SteeringWatch"],
})
