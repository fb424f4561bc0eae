"""Cookie storage modelled on the browser cookie service.

Cookies are stored per domain.  ``snapshot()`` / ``restore()`` support
the sandbox: the add-on monitors the cookie service during remote page
requests and removes everything that was installed, "irrespective of the
techniques used to install them" (Sect. 3.6.1).  A snapshot shares no
dict with the jar: the store is two levels of dicts over immutable
strings, and both levels are copied each way.
"""

from __future__ import annotations

from typing import Dict, Optional


def _copy_state(state: Dict[str, Dict[str, str]]) -> Dict[str, Dict[str, str]]:
    return {domain: dict(cookies) for domain, cookies in state.items()}


class CookieJar:
    """Per-domain name→value cookie store with snapshot support.

    ``snapshot()``, ``restore()`` and ``copy()`` never alias: mutating
    the jar leaves a snapshot unchanged and vice versa, at the domain
    level and at the cookie level.
    """

    def __init__(self, initial: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        self._jar: Dict[str, Dict[str, str]] = _copy_state(initial or {})

    # -- access ------------------------------------------------------------
    def get(self, domain: str) -> Dict[str, str]:
        """Cookies for one domain (a copy; mutate via :meth:`set`)."""
        return dict(self._jar.get(domain, {}))

    def value(self, domain: str, name: str) -> Optional[str]:
        return self._jar.get(domain, {}).get(name)

    def set(self, domain: str, name: str, value: str) -> None:
        self._jar.setdefault(domain, {})[name] = value

    def set_many(self, domain: str, cookies: Dict[str, str]) -> None:
        for name, value in cookies.items():
            self.set(domain, name, value)

    # -- snapshot / restore ---------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, str]]:
        return _copy_state(self._jar)

    def restore(self, state: Dict[str, Dict[str, str]]) -> None:
        self._jar = _copy_state(state)
