"""Sandboxing of remote page requests (Sect. 3.6.1).

When a PPC serves a price-check request for another peer, the add-on
must leave the local browser exactly as it found it: no cookies (however
installed), no history entries, no cache entries.  The
:class:`Sandbox` context manager snapshots cookie jar, history, and
cache on entry and restores them on exit — including on exceptions.

:func:`sandboxed_fetch` performs one remote product-page request inside
such a sandbox, optionally swapping in a doppelganger's client-side
state first (Sect. 3.6.2).  Server-side effects are *not* undone — they
cannot be, which is exactly why the pollution budget and doppelgangers
exist — but when the doppelganger state is used, those effects attach to
the doppelganger's cookies instead of the real user's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.browser.browser import Browser
from repro.web.store import StoreResponse

ClientState = Dict[str, Dict[str, str]]


class Sandbox:
    """Snapshot/restore guard over a browser's local state."""

    def __init__(self, browser: Browser) -> None:
        self._browser = browser
        self._cookies_snapshot: Optional[ClientState] = None
        self._history_snapshot = None
        self._cache_snapshot: Optional[Dict[str, str]] = None

    def __enter__(self) -> "Sandbox":
        self._cookies_snapshot = self._browser.cookies.snapshot()
        self._history_snapshot = self._browser.history.snapshot()
        self._cache_snapshot = dict(self._browser.cache)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._cookies_snapshot is not None
        self._browser.cookies.restore(self._cookies_snapshot)
        self._browser.history.restore(self._history_snapshot)
        self._browser.cache.clear()
        self._browser.cache.update(self._cache_snapshot or {})


@dataclass
class SandboxedFetchResult:
    """Outcome of one sandboxed remote page request."""

    response: StoreResponse
    #: the doppelganger's client-side state at the end of the request,
    #: to hand back to the Coordinator; ``None`` for a real-profile
    #: fetch, whose end state the sandbox throws away
    client_state_after: Optional[ClientState]
    used_doppelganger: bool


def sandboxed_fetch(
    browser: Browser,
    url: str,
    client_state: Optional[ClientState] = None,
) -> SandboxedFetchResult:
    """Fetch ``url`` in a sandbox, optionally as a doppelganger.

    With ``client_state=None`` the request is sent with the PPC's *own*
    cookies (real-profile measurement point, counted against the
    pollution budget).  Otherwise the jar is replaced by the given
    doppelganger state for the duration of the request, and its end
    state is returned.  Either way the browser's cookies/history/cache
    are bit-identical afterwards.
    """
    state_after = None
    with Sandbox(browser):
        if client_state is not None:
            browser.cookies.restore(client_state)
        response = browser.visit(url)
        if client_state is not None:
            state_after = browser.cookies.snapshot()
    return SandboxedFetchResult(
        response=response,
        client_state_after=state_after,
        used_doppelganger=client_state is not None,
    )
