"""Proxy clients: infrastructure (IPC), peer (PPC), and the crawler.

* :class:`~repro.clients.ipc.InfrastructureProxyClient` — a dedicated
  node with a cleanly installed browser that keeps no history or cookies
  between fetches; 30 of them are deployed around the world.
* :class:`~repro.clients.ppc.PeerProxyClient` — the add-on-side handler
  that serves remote page requests under the pollution budget,
  swapping in doppelganger state when the budget is exhausted.
* :class:`~repro.clients.crawler.SystematicCrawler` — the Sect. 7
  measurement driver (randomized delays, clean-profile reset every 4
  requests).
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".ipc": ["DEFAULT_IPC_SITES", "InfrastructureProxyClient", "build_default_ipcs"],
    ".ppc": ["PeerProxyClient"],
    ".crawler": ["SystematicCrawler"],
})
