"""The browser add-on (Sect. 3.1.2; App. 10.5).

Five modules, as in the implementation appendix:

* **View** — the result page (delegated to
  :meth:`repro.core.pricecheck.PriceCheckResult.render_result_page`);
* **Collector** — detects third-party domains on the current page,
  builds the Tags Path from the user's price selection, and runs the
  request protocol against the Coordinator and Measurement server;
* **Peer handler** — the P2P side
  (:class:`repro.clients.ppc.PeerProxyClient`), registered with the
  overlay under this add-on's peer ID;
* **Sandbox** — remote page requests execute via
  :func:`repro.browser.sandbox.sandboxed_fetch` inside the peer handler;
* **Controller** — the orchestration entry points exposed here.

The human act of highlighting the price is simulated by
:meth:`SheriffAddon.select_price_element`, which picks the price markup
inside the product block the way a user's cursor would.  Everything
downstream of the selection is the real algorithm, read off the page's
tags as the Measurement server reads the vantage pages: no tree is
built.

Privacy: "No information leaves the browser unless the user explicitly
opts in" — history donation and profile encryption check the consent
flag, and an add-on installed without consent is not activated at all.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.browser.browser import Browser
from repro.browser.fingerprint import parse_user_agent
from repro.core.aggregator import Aggregator
from repro.core.coordinator import Coordinator, JobRecord
from repro.core.errors import (
    ConsentRequired,
    PriceCheckFailed,
    PriceSelectionError,
)
from repro.core.measurement import PriceCheckJob
from repro.core.pricecheck import PriceCheckResult
from repro.core.tagspath import PageElement, TagsPath, select_tags_path
from repro.currency.detect import detect_price
from repro.net.faults import ROLE_SERVER
from repro.net.p2p import PeerOverlay
from repro.web.store import PRICE_CLASSES

__all__ = [
    "ConsentRequired",
    "PriceCheckFailed",
    "PriceSelectionError",
    "SheriffAddon",
]


class SheriffAddon:
    """One installed add-on instance (Firefox/Chrome equivalent)."""

    def __init__(
        self,
        browser: Browser,
        coordinator: Coordinator,
        aggregator: Aggregator,
        overlay: PeerOverlay,
        measurement_lookup,
        peer_id: str,
        consent: bool = True,
        history_donation_opt_in: bool = False,
        serve_as_ppc: bool = True,
        anonymity=None,
    ) -> None:
        self.browser = browser
        self.coordinator = coordinator
        self.aggregator = aggregator
        self.overlay = overlay
        self._measurement_lookup = measurement_lookup
        self.consent = consent
        self.history_donation_opt_in = history_donation_opt_in
        self.peer_id = peer_id
        # imported here to avoid a core ↔ clients import cycle
        from repro.clients.ppc import PeerProxyClient

        self.peer_handler = PeerProxyClient(
            peer_id=self.peer_id,
            browser=browser,
            coordinator=coordinator,
            aggregator=aggregator,
            anonymity=anonymity,
            faults=coordinator.faults,
        )
        self.checks_initiated = 0
        if consent and serve_as_ppc:
            # The add-on announces itself to the Coordinator on startup.
            overlay.register(self.peer_id, browser.location, self.peer_handler.handle)

    # -- consent ---------------------------------------------------------------
    def _require_consent(self) -> None:
        if not self.consent:
            raise ConsentRequired(
                "the add-on is not activated: the user did not consent"
            )

    # -- Collector: price selection & tags path --------------------------------
    @staticmethod
    def select_price_element(elements: Sequence[PageElement]) -> PageElement:
        """Simulate the user highlighting the product price.

        The cursor lands on the price markup inside the main product
        block — the first price-classed span within a ``product``
        element, trying the price classes in order; with no product
        block, anywhere on the page.
        """
        products = [e for e in elements if "product" in e.classes]
        for scope in products or elements[:1]:
            spans = [
                e for e in elements
                if e.tag == "span" and scope.opened <= e.opened <= scope.closed
            ]
            for cls in PRICE_CLASSES:
                for span in spans:
                    if cls in span.classes:
                        return span
        raise PriceSelectionError("no price element found on the page")

    def build_selection(self, html: str) -> Tuple[TagsPath, str]:
        """Select the price on the page's cut and build the Tags Path.

        No tree is built: the selection reads the page's tags, once per
        tag skeleton (:func:`repro.core.tagspath.select_tags_path`).
        The selected text is validated the way the real add-on validates
        it (length cap, at least one digit, sanitization) — invalid
        selections raise before anything leaves the browser.
        """
        path, text = select_tags_path(html, self.select_price_element)
        detect_price(text)  # raises CurrencyDetectionError when invalid
        return path, text

    # -- Controller: the price check entry points ------------------------------
    def check_price(self, url: str, requested_currency: str = "EUR") -> PriceCheckResult:
        """Run a full price check (steps 1–5 of Fig. 1), blocking.

        Thin wrapper over the job lifecycle: submit, then collect.
        """
        return self.collect(self.submit_price_check(url, requested_currency))

    def submit_price_check(
        self, url: str, requested_currency: str = "EUR"
    ) -> JobRecord:
        """Steps 1–3 of Fig. 1: admission, navigation, job submission.

        Returns the job's :class:`JobRecord` — fetches in flight on the
        engine's simulated timeline, or queued in the queue tier's
        outbox; pass it to :meth:`collect` for the rows.  The navigation to the product page is
        a *real* visit — the user is shopping; only tunneled requests
        are sandboxed.
        """
        self._require_consent()
        # Admission first: if the domain is not whitelisted or the URL is
        # PII-blacklisted, the system "will not fetch the content"
        # (Sect. 2.3) — nothing is navigated for a rejected request.
        record, ppc_ids = self.coordinator.new_request(  # steps 1.x / 2
            self.peer_id, url, self.browser.location
        )
        try:
            response = self.browser.visit(url)  # step 1: navigate + select
            tags_path, _ = self.build_selection(response.html)
        except Exception as exc:
            # nothing was sent: report the job failed, so the server's
            # counter stays true and no completion is counted
            self.coordinator.fail_job(
                record.job_id, f"page selection failed: {exc}"
            )
            raise
        os_name, browser_name = parse_user_agent(self.browser.agent.string)
        job = PriceCheckJob(  # step 3
            job_id=record.job_id,
            url=url,
            tags_path=tags_path,
            requested_currency=requested_currency,
            initiator_peer_id=self.peer_id,
            initiator_html=response.html,
            initiator_location=self.browser.location,
            initiator_os=os_name,
            initiator_browser=browser_name,
            ppc_ids=ppc_ids,
            third_party_domains=response.tracker_domains,
        )
        return self._send_job(job, record)  # steps 3.1–3.2, with failover

    def collect(self, record: JobRecord) -> PriceCheckResult:
        """Steps 4–5: wait for the job's terminal state, return the result.

        The job's entry point is looked up by the record's server name.
        A job reported failed — below the result quorum, failed over
        past its retry budget, or dropped from the queue tier's outbox —
        raises :class:`PriceCheckFailed` with the record's
        ``failure_reason``.
        """
        result = self._measurement_lookup(record.server_name).result(record)
        self.checks_initiated += 1
        return result

    def _send_job(self, job: PriceCheckJob, record: JobRecord) -> JobRecord:
        """Submit the job, failing over dead Measurement servers.

        Each attempt may find the assigned server dark (missed
        heartbeats, or the send itself is dropped by the fault plan);
        the add-on then reports the failure to the Coordinator, which
        moves every job pending on that server to a survivor within its
        retry budget or fails it, and backs off (capped exponential
        with jitter).  The job's record says what happened: a failed
        record raises :class:`PriceCheckFailed`, never a hang; otherwise
        the add-on re-sends to the server the record names.
        """
        coordinator = self.coordinator
        attempt = 0
        while True:
            server_name = record.server_name
            faults = coordinator.faults
            send_failed = not coordinator.distributor.server(server_name).online
            if not send_failed and faults is not None:
                send_failed = faults.host_down(
                    server_name, coordinator.clock.now, role=ROLE_SERVER
                ) or bool(
                    faults.decide(
                        self.peer_id, server_name, role=ROLE_SERVER,
                        kinds=("drop", "timeout"),
                    )
                )
            if not send_failed:
                return self._measurement_lookup(server_name).submit(job)
            coordinator.handle_server_failure(server_name)
            coordinator.next_backoff(attempt)  # accounted, not slept
            attempt += 1
            if record.failed:
                raise PriceCheckFailed(job.job_id, record.failure_reason)

    # -- history donation (requirement 3 of Sect. 2.2) --------------------------

    def encrypted_profile(
        self,
        scheme,
        public_keys: Sequence[int],
        reference_domains: Sequence[str],
        rng: random.Random,
        quantization: int = 100,
    ):
        """Encrypt this user's profile vector for the secure clustering.

        Unlike history donation, this never reveals the cleartext
        profile to anyone — consent to participate suffices.
        """
        self._require_consent()
        from repro.crypto.secure_kmeans import ProfileClient
        from repro.profiles.vector import profile_from_counts

        profile = profile_from_counts(
            self.browser.browsing_profile_counts(), reference_domains, quantization
        )
        client = ProfileClient(list(profile.quantized), quantization)
        return client.encrypt_profile(scheme, public_keys, rng)
