"""The systematic measurement crawler (Sect. 7.1, "Crawling setup").

The paper drives Firefox with iMacros scripts generated by "a custom
Python driver" that (a) injects random delays between requests to mimic
human pacing and evade bot detection, and (b) resets the browser to a
clean profile every 4 price check requests.  This class reproduces that
driver over the simulated deployment: it owns a geolocated browser +
add-on, advances the simulation clock by the randomized inter-request
delay, and rebuilds a clean browser every ``reset_every`` checks.

Crawlers register their add-on with ``serve_as_ppc=False``: artificial
clients initiate price checks but never serve as measurement points for
real users (the paper isolates crawl traffic on a parallel back-end that
only *shares* the live PPC network).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.core.addon import SheriffAddon
from repro.core.pricecheck import PriceCheckResult

if TYPE_CHECKING:  # avoid a clients ↔ core import cycle at runtime
    from repro.core.sheriff import PriceSheriff


class SystematicCrawler:
    """One artificial price-check client in a fixed location."""

    def __init__(
        self,
        sheriff: "PriceSheriff",
        country: str,
        city: Optional[str] = None,
        rng: Optional[random.Random] = None,
        reset_every: int = 4,
        min_delay: float = 2.0,
        max_delay: float = 20.0,
    ) -> None:
        self.sheriff = sheriff
        self.country = country
        self.city = city
        self._rng = rng if rng is not None else random.Random(777)
        self.reset_every = reset_every
        self.min_delay = min_delay
        self.max_delay = max_delay
        self._checks_since_reset = 0
        self.total_checks = 0
        self._addon: Optional[SheriffAddon] = None
        # the crawling machine keeps one IP across profile resets
        self._location = sheriff.world.geodb.make_location(country, city)
        self._reset_profile()

    # -- profile management --------------------------------------------------
    def _reset_profile(self) -> None:
        """Fresh browser + add-on: the iMacros clean-profile reset."""
        browser = self.sheriff.world.make_browser(
            self.country, self.city, location=self._location,
        )
        self._addon = self.sheriff.install_addon(
            browser, consent=True, serve_as_ppc=False
        )
        self._checks_since_reset = 0

    @property
    def addon(self) -> SheriffAddon:
        assert self._addon is not None
        return self._addon

    # -- crawling --------------------------------------------------------------
    def _human_delay(self) -> None:
        delay = self._rng.uniform(self.min_delay, self.max_delay)
        self.sheriff.world.clock.advance(delay)

    def check(self, url: str, requested_currency: str = "EUR") -> PriceCheckResult:
        """One price check with human-like pacing and periodic resets."""
        if self._checks_since_reset >= self.reset_every:
            self._reset_profile()
        self._human_delay()
        result = self.addon.check_price(url, requested_currency)
        self._checks_since_reset += 1
        self.total_checks += 1
        return result
