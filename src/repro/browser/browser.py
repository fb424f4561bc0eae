"""The browser model: fetch pipeline, cookies, history, cache, trackers.

A :class:`Browser` is the execution environment both of real users (who
browse organically and thereby build profiles) and of the $heriff add-on
(which issues sandboxed remote page requests through it).  A normal
:meth:`visit` does everything a real navigation does:

1. sends the first-party cookies for the target domain plus the visitor's
   tracker cookies,
2. applies ``Set-Cookie`` responses to the jar,
3. records the URL in history and the HTML in the cache,
4. "executes" the page's third-party trackers: each tracker observes the
   visit under the browser's per-tracker cookie (creating one on first
   contact), which is how server-side tracking profiles accrete.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.browser.cookies import CookieJar
from repro.browser.fingerprint import UserAgent, user_agent
from repro.browser.history import BrowserHistory
from repro.net.events import Clock
from repro.net.geo import Location
from repro.web.internet import Internet, parse_url
from repro.web.pricing import RequestContext, stable_rng
from repro.web.store import StoreResponse
from repro.web.trackers import TrackerEcosystem


class Browser:
    """One browser instance (a user's, an IPC's, or a doppelganger's)."""

    def __init__(
        self,
        internet: Internet,
        ecosystem: TrackerEcosystem,
        clock: Clock,
        location: Location,
        agent: Optional[UserAgent] = None,
    ) -> None:
        self.internet = internet
        self.ecosystem = ecosystem
        self.clock = clock
        self.location = location
        self.agent = agent if agent is not None else user_agent("Windows 7", "Chrome")
        self.cookies = CookieJar()
        self.history = BrowserHistory()
        self.cache: Dict[str, str] = {}
        self._nonce = itertools.count()

    # -- context construction ---------------------------------------------
    def _tracker_cookies(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for domain in self.ecosystem.domains():
            value = self.cookies.value(domain, "tid")
            if value is not None:
                out[domain] = value
        return out

    def request_context(self, domain: str) -> RequestContext:
        return RequestContext(
            time=self.clock.now,
            location=self.location,
            user_agent=self.agent.string,
            first_party_cookies=self.cookies.get(domain),
            tracker_cookies=self._tracker_cookies(),
            request_nonce=next(self._nonce),
        )

    # -- fetching ---------------------------------------------------------
    def _run_trackers(self, response: StoreResponse, first_party: str) -> None:
        for tracker_domain in response.tracker_domains:
            tracker = self.ecosystem.get(tracker_domain)
            cookie = self.cookies.value(tracker_domain, "tid")
            new_cookie = tracker.observe(cookie, first_party, time=self.clock.now)
            self.cookies.set(tracker_domain, "tid", new_cookie)

    def visit(self, url: str) -> StoreResponse:
        """A full, state-mutating navigation (what a real user does)."""
        domain, _ = parse_url(url)
        ctx = self.request_context(domain)
        response = self.internet.fetch(url, ctx)
        self.cookies.set_many(domain, response.set_cookies)
        self._run_trackers(response, domain)
        self.history.add(self.clock.now, url)
        self.cache[url] = response.html
        return response

    def fetch_raw(self, url: str, ctx: RequestContext) -> StoreResponse:
        """Fetch without touching any browser state (sandbox internals)."""
        return self.internet.fetch(url, ctx)

    # -- account handling --------------------------------------------------
    def login(self, domain: str) -> str:
        """Log into a retailer account (sets the ``account`` cookie)."""
        token = stable_rng("account", domain, self.location.ip).randbytes(8).hex()
        self.cookies.set(domain, "account", token)
        return token

    def is_logged_in(self, domain: str) -> bool:
        return self.cookies.value(domain, "account") is not None

    # -- profile data -------------------------------------------------------
    def browsing_profile_counts(self):
        """Domain-level visit counts (what the add-on may donate)."""
        return self.history.domain_counts()
