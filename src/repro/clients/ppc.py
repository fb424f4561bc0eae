"""Peer Proxy Client: serving remote page requests from a real browser.

This is the add-on-side logic behind steps 3.2–3.4 of Fig. 1.  When a
Measurement server asks a PPC to fetch a product page:

1. the PPC consults its :class:`~repro.profiles.doppelganger.PollutionBudget`
   for the target domain (1 tunneled request per 4 organic product
   views; unvisited domains are exempt);
2. within budget, it fetches with its *own* client-side state — that is
   the whole point: a real, diverse profile as a measurement point;
3. over budget, it requests its doppelganger's ID from the Aggregator
   (bearer token) and the corresponding client-side state from the
   Coordinator (via an anonymity channel), and fetches as the
   doppelganger;
4. either way, the fetch runs inside the sandbox, so the local browser
   state is untouched.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.browser.browser import Browser
from repro.browser.fingerprint import parse_user_agent
from repro.browser.sandbox import sandboxed_fetch
from repro.core.aggregator import Aggregator
from repro.core.coordinator import Coordinator
from repro.core.errors import StateFetchFailed
from repro.net.faults import ROLE_STATE, BackoffPolicy, FaultPlan
from repro.profiles.doppelganger import PollutionBudget
from repro.web.internet import parse_url

__all__ = ["PeerProxyClient", "StateFetchFailed"]

#: retries after a failed doppelganger state fetch, and the waits between them
MAX_STATE_RETRIES = 2
BACKOFF = BackoffPolicy(base=0.25)


class PeerProxyClient:
    """The remote-page-request handler living inside one add-on."""

    def __init__(
        self,
        peer_id: str,
        browser: Browser,
        coordinator: Coordinator,
        aggregator: Aggregator,
        anonymity=None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.peer_id = peer_id
        self.browser = browser
        self.coordinator = coordinator
        self.aggregator = aggregator
        #: optional :class:`repro.net.anonymity.AnonymityNetwork`; when
        #: present, doppelganger state requests are onion-routed so the
        #: Coordinator cannot map this peer to a doppelganger (Sect. 3.7)
        self.anonymity = anonymity
        #: chaos schedule; the anonymity circuit to the Coordinator is
        #: one more link that can drop requests under chaos
        self.faults = faults
        self.budget = PollutionBudget()
        self.requests_served = 0
        self.requests_with_real_profile = 0
        self.requests_with_doppelganger = 0

    # -- the message handler registered with the overlay --------------------
    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(message, dict) or message.get("type") != "remote_page_request":
            return {"error": "unsupported message"}
        url = message.get("url")
        if not url:
            return {"error": "missing url"}
        return self.serve_remote_request(url)

    def _fetch_doppelganger_state(self, token: str):
        """Redeem the bearer token at the Coordinator (step 3.4).

        With an anonymity network configured the request is onion
        routed, so the Coordinator sees only the exit relay; otherwise
        it falls back to a direct call (tests / minimal deployments).

        The fetch gets a bounded, jittered retry budget: the anonymity
        circuit is one more hop that can drop requests under chaos.
        Raises :class:`StateFetchFailed` once the budget is exhausted.
        """
        for attempt in range(MAX_STATE_RETRIES + 1):
            if attempt > 0:
                # the wait is not kept, but its jitter draw from the fault
                # plan's stream is: the chaos replays pin that stream
                BACKOFF.delay(attempt - 1, self.faults.rng if self.faults else None)
            if self.faults is not None:
                decision = self.faults.decide(
                    self.peer_id, "coordinator", role=ROLE_STATE
                )
                if decision.kind in ("drop", "timeout"):
                    continue
            if self.anonymity is None:
                return self.coordinator.doppelganger_client_state(token)
            circuit = self.anonymity.build_circuit()
            try:
                return circuit.send(
                    token.encode("utf-8"),
                    destination=self.coordinator.handle_anonymous_state_request,
                    sender_name=self.peer_id,
                )
            finally:
                circuit.close()
        raise StateFetchFailed(
            f"peer {self.peer_id}: doppelganger state fetch failed after "
            f"{MAX_STATE_RETRIES + 1} attempts"
        )

    # -- serving --------------------------------------------------------------
    def serve_remote_request(self, url: str) -> Dict[str, Any]:
        domain, _ = parse_url(url)
        # Defence in depth for Sect. 2.3's guarantee that "the peer
        # clients cannot be requested to visit malicious or controversial
        # websites": besides the Coordinator's admission check, the PPC
        # itself refuses domains outside the whitelist — a compromised
        # Measurement server cannot turn peers into an open proxy.
        if not self.coordinator.whitelist.allows_domain(domain):
            return {"error": f"domain {domain!r} is not whitelisted"}
        organic = self.browser.history.product_visits_to(domain)
        use_real = self.budget.can_use_real_profile(domain, organic)
        if not use_real and not self.aggregator.has_doppelganger_for(self.peer_id):
            # Before the first clustering round there is no doppelganger
            # to swap in; the budget keeps this rare, and we surface it.
            use_real = True

        if use_real:
            result = sandboxed_fetch(self.browser, url)
            if organic > 0:
                # only visits that pollute existing server-side state
                # count against the budget (Sect. 3.6.2)
                self.budget.record_real_use(domain)
            self.requests_with_real_profile += 1
        else:
            token = self.aggregator.doppelganger_id_for(self.peer_id)  # step 3.3
            try:
                state = self._fetch_doppelganger_state(token)  # step 3.4
            except StateFetchFailed as exc:
                # Never trade privacy for availability: with no
                # doppelganger state this peer sits the request out and
                # the job degrades to fewer vantage points.
                return {"error": str(exc)}
            result = sandboxed_fetch(self.browser, url, client_state=state)
            self.coordinator.update_doppelganger_state(
                token, result.client_state_after
            )
            fresh = self.coordinator.record_doppelganger_serve(token, domain)
            if fresh is not None:
                self.aggregator.update_doppelganger_id(
                    self.aggregator.peer_cluster[self.peer_id], fresh
                )
            self.requests_with_doppelganger += 1

        self.requests_served += 1
        os_name, browser_name = parse_user_agent(self.browser.agent.string)
        location = self.browser.location
        return {
            "peer_id": self.peer_id,
            "html": result.response.html,
            "status": result.response.status,
            "ip": location.ip,
            "country": location.country,
            "region": location.region,
            "city": location.city,
            "os": os_name,
            "browser": browser_name,
            "used_doppelganger": result.used_doppelganger,
        }
