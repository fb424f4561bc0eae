"""Browser substrate: cookie jar, history, cache, sandboxing, user agents.

Stands in for Firefox/Chrome plus the WebExtension APIs the add-on uses
(cookie service, history service, cache service, HTTP(S) connection
monitoring).  The :class:`~repro.browser.sandbox.Sandbox` reproduces the
client-side pollution prevention of Sect. 3.6.1: a remote page request
executes against a snapshot of the browser state and every trace of it —
cookies set by the page or its trackers, history entries, cache entries —
is discarded afterwards.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".cookies": ["CookieJar"],
    ".history": ["BrowserHistory", "HistoryEntry"],
    ".fingerprint": ["UserAgent", "all_user_agents", "user_agent"],
    ".browser": ["Browser"],
    ".sandbox": ["Sandbox", "SandboxedFetchResult"],
})
