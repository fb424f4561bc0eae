"""Third-party tracker ecosystem and server-side profile building.

Requirement 2 of Sect. 2.2: the system must "detect the presence of
third party trackers and investigate whether it correlates with observed
price variations."  The simulated trackers behave like the real
ecosystem seen from a browser:

* a site embeds some set of tracker domains;
* when the page loads, each tracker receives a request carrying the
  browser's third-party cookie for that tracker (set on first contact);
* server-side, the tracker accumulates a profile — the multiset of
  first-party domains on which it has observed that cookie.

A PDI-PD pricing policy can buy access to a tracker's profiles and
condition prices on them; the $heriff's job is to catch that.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class TrackerVisit:
    """One observation logged by a tracker."""

    cookie: str
    first_party: str
    time: float


class Tracker:
    """A single third-party tracker domain."""

    def __init__(self, domain: str) -> None:
        self.domain = domain
        # Cookies: a stream named after this tracker, so no other
        # minter shifts them.
        self._tids = random.Random(f"tid:{domain}")
        self._profiles: Dict[str, Counter] = {}
        self.visits: List[TrackerVisit] = []

    def observe(self, cookie: Optional[str], first_party: str, time: float = 0.0) -> str:
        """Record a page view; returns the (possibly fresh) cookie value."""
        if cookie is None:
            cookie = self._tids.randbytes(8).hex()
        self._profiles.setdefault(cookie, Counter())[first_party] += 1
        self.visits.append(TrackerVisit(cookie=cookie, first_party=first_party, time=time))
        return cookie

    def profile(self, cookie: str) -> Counter:
        """The domain-visit profile the tracker holds for a cookie."""
        return Counter(self._profiles.get(cookie, Counter()))

    def forget(self, cookie: str) -> None:
        self._profiles.pop(cookie, None)


class TrackerEcosystem:
    """The set of trackers active on the simulated internet."""

    #: Default tracker population; `fingerprint.net` marks the rare
    #: fingerprinting-capable tracker the paper's footnote discusses.
    DEFAULT_DOMAINS = (
        "doubleclick.net",
        "google-analytics.com",
        "facebook.net",
        "criteo.com",
        "addthis.com",
        "scorecardresearch.com",
        "fingerprint.net",
    )

    def __init__(self, domains: Sequence[str] = DEFAULT_DOMAINS) -> None:
        self._trackers: Dict[str, Tracker] = {d: Tracker(d) for d in domains}

    def __contains__(self, domain: str) -> bool:
        return domain in self._trackers

    def get(self, domain: str) -> Tracker:
        try:
            return self._trackers[domain]
        except KeyError:
            raise KeyError(f"unknown tracker domain {domain!r}") from None

    def domains(self) -> List[str]:
        return list(self._trackers)

    def trackers(self) -> List[Tracker]:
        return list(self._trackers.values())

    def profile_across_trackers(self, cookies: Dict[str, str]) -> Counter:
        """Union profile for a browser, given its per-tracker cookies.

        This is what a colluding set of trackers (or a data broker) could
        assemble — the information channel a PDI-PD retailer would use.
        """
        merged: Counter = Counter()
        for domain, cookie in cookies.items():
            if domain in self._trackers:
                merged.update(self._trackers[domain].profile(cookie))
        return merged
