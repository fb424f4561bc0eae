"""The Measurement server (Sect. 3.1.1, 3.2; App. 10.5).

One server handles one price-check job end to end:

1. fan the page request out to **all** IPCs (step 3.1) and to the PPC
   list the Coordinator selected (step 3.2) — in the simulation these
   fetches happen at the same simulated instant, which is exactly the
   paper's requirement that all vantage points fetch "at the same time
   in order to factor out temporal price variations";
2. run the Tags Path extractor over every returned page;
3. run the currency detection/conversion algorithm, converting
   everything into the currency requested by the initiating user;
4. persist the results through the shared Database server in one write
   (``sp_record_job``: the request and every response row, one round
   trip, one transaction), storing the initiator page in full and every
   other page as a diff (DiffStorage);
5. report completion to the Coordinator when the job's last fetch
   lands on the engine, and return the result rows.

Per the production note in Sect. 5, a per-proxy timeout bounds how long
a slow (PlanetLab) node can hold up a job; in the simulation the
slowdown factor stands in for wall-clock delay and responses from nodes
whose slowdown exceeds the timeout budget are dropped the same way.

An IPC page served by the engine's page cache is read once: the first
check that reads it stores its diff and extracts its row, and every
later check of the burst stores an alias of that diff and takes the
same (frozen) row when its Tags Path, requested currency and ``now``
match — steps 2-4 above, skipped for bytes already read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.coordinator import RUNNING, Coordinator, JobRecord
from repro.core.database import DatabaseServer
from repro.core.diffstorage import DiffStorage
from repro.core.engine import (
    CACHE_HIT_SECONDS,
    CachedPage,
    FetchTask,
    PriceCheckEngine,
)
from repro.core.pricecheck import PriceCheckResult, ResultRow
from repro.core.tagspath import EXTRACTION_STATS, TagsPath, extract_price_text
from repro.currency.detect import Confidence, CurrencyDetectionError, detect_price
from repro.currency.rates import ExchangeRateProvider, UnknownCurrencyError
from repro.net.events import Clock
from repro.net.faults import PeerTimeout, ProxyFetchError
from repro.net.geo import Location
from repro.net.p2p import PeerOverlay
from repro.net.sim import LatencyModel, fetch_duration
from repro.obs import NULL_TELEMETRY
from repro.web.internet import parse_url

if TYPE_CHECKING:  # avoid a core ↔ clients import cycle at runtime
    from repro.clients.ipc import InfrastructureProxyClient

__all__ = [
    "MeasurementServer",
    "MeasurementStats",
    "PriceCheckJob",
]

#: Longest extracted price text a row may carry.  A valid selection has
#: at most ``MAX_SELECTION_LENGTH`` (25) characters; the element a Tags
#: Path lands on in a peer's page can hold a megabyte, and whatever the
#: row carries is written to the database.
PRICE_TEXT_MAX = 256

#: Longest location or user-agent field of a PPC reply a row may carry:
#: they too are written to the database as the peer sent them.
PPC_FIELD_MAX = 64

#: The columns of a stored response row after its ``job_id``, sorted as
#: the codec sorts a row dict's keys; ``_persist`` writes one value per
#: column, in this order.
RESPONSE_COLUMNS = (
    "amount", "amount_eur", "city", "country", "currency", "error", "kind",
    "low_confidence", "original_text", "proxy_id", "region", "time",
    "used_doppelganger",
)


@dataclass
class MeasurementStats:
    """Per-server retry/degradation counters (Fig. 7-style panel)."""

    ipc_fetches: int = 0
    ipc_failures: int = 0
    ipc_retries: int = 0
    ppc_ok: int = 0
    ppc_dropped: int = 0
    ppc_timeouts: int = 0
    ppc_corrupt: int = 0
    degraded_jobs: int = 0
    quorum_failures: int = 0
    page_cache_hits: int = 0

    def add(self, other: "MeasurementStats") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def rows(self) -> List[Dict[str, int]]:
        return [
            {"Counter": name, "Value": getattr(self, name)}
            for name in self.__dataclass_fields__
        ]


@dataclass
class PriceCheckJob:
    """What the add-on sends in step 3 of Fig. 6 (plus server context)."""

    job_id: str
    url: str
    tags_path: TagsPath
    requested_currency: str
    initiator_peer_id: str
    initiator_html: str
    initiator_location: Location
    initiator_os: str
    initiator_browser: str
    ppc_ids: Sequence[str] = ()
    third_party_domains: Tuple[str, ...] = ()


class MeasurementServer:
    """One price-check worker of the back-end."""

    #: proxies slower than this factor are treated as timed out (the
    #: production system kills proxy requests after 2 minutes, Sect. 5).
    PROXY_SLOWDOWN_TIMEOUT = 4.0

    def __init__(
        self,
        name: str,
        coordinator: Coordinator,
        db: DatabaseServer,
        rates: ExchangeRateProvider,
        ipcs: Sequence["InfrastructureProxyClient"],
        overlay: PeerOverlay,
        clock: Clock,
        engine: PriceCheckEngine,
        diffstore: Optional[DiffStorage] = None,
        quorum: int = 1,
        latency_model: Optional[LatencyModel] = None,
        telemetry=NULL_TELEMETRY,
        transport_label: str = "sim",
    ) -> None:
        self.name = name
        #: which messaging backend carried this server's traffic;
        #: stamped on the price_check root span for sim/mesh trace parity
        self.transport_label = transport_label
        self.coordinator = coordinator
        self.db = db
        self.rates = rates
        self.ipcs = list(ipcs)
        self.overlay = overlay
        self.clock = clock
        self.diffstore = diffstore if diffstore is not None else DiffStorage()
        #: minimum number of vantage points (initiator included) that
        #: must return a page; below it the job is reported failed
        #: instead of producing a one-sided comparison
        self.quorum = max(1, quorum)
        #: the deployment's shared engine: places every fetch of every
        #: job on the simulated timeline and owns the page cache
        self.engine = engine
        #: per-server latency model with a *dedicated* RNG: duration
        #: draws must never perturb the world/fault RNG streams, or the
        #: worker-pool size would shape the rows
        self._latency = (
            latency_model
            if latency_model is not None
            else LatencyModel(rng=random.Random(f"lat:{name}"))
        )
        #: where the server machine sits (the paper's back-end ran at
        #: UPC Barcelona); only used to compute fetch round trips
        self.location = Location(
            country="ES", region="Catalonia", city="Barcelona",
            ip=f"10.250.1.{sum(name.encode()) % 200 + 1}",
        )
        #: telemetry is observational only — spans read the sim clock
        #: and never consume any RNG stream, so runs stay
        #: byte-identical with tracing on or off
        self.telemetry = telemetry
        registry = telemetry.registry
        #: the extraction work of this server's fan-outs (the extractor
        #: and its memo are process-wide: see :meth:`_execute`)
        self._m_extract = {
            "pages_parsed": registry.counter(
                "sheriff_extract_pages_parsed_total",
                "Tag skeletons scanned and matched (extraction memo misses)",
            ),
            "memo_hits": registry.counter(
                "sheriff_extract_memo_hits_total",
                "Extraction memo hits (a page whose tag skeleton was seen before)",
            ),
            "candidates_pruned": registry.counter(
                "sheriff_extract_candidates_pruned_total",
                "Candidates skipped because their shared suffix cannot win",
            ),
            "lcs_cells": registry.counter(
                "sheriff_extract_lcs_cells_total",
                "LCS DP cells evaluated after prefix/suffix stripping",
            ),
        }
        self.jobs_processed = 0
        self.stats = MeasurementStats()

    # -- price extraction + conversion on one page -----------------------------
    def _row_from_page(
        self,
        job: PriceCheckJob,
        html: str,
        kind: str,
        proxy_id: str,
        location_fields: Tuple[str, str, str],
        ua: Tuple[Optional[str], Optional[str]] = (None, None),
        used_doppelganger: bool = False,
    ) -> ResultRow:
        country, region, city = location_fields
        base = dict(
            kind=kind, proxy_id=proxy_id, country=country, region=region,
            city=city, ua_os=ua[0], ua_browser=ua[1],
            used_doppelganger=used_doppelganger,
        )
        text = extract_price_text(html, job.tags_path)
        if text is None:
            return ResultRow(
                original_text=None, detected_amount=None, detected_currency=None,
                converted_value=None, amount_eur=None,
                error="price not found on page", **base,
            )
        if len(text) > PRICE_TEXT_MAX:
            return ResultRow(
                original_text=text[:PRICE_TEXT_MAX], detected_amount=None,
                detected_currency=None, converted_value=None, amount_eur=None,
                error="price text too long", **base,
            )
        try:
            detected = detect_price(text)
        except CurrencyDetectionError as exc:
            return ResultRow(
                original_text=text, detected_amount=None, detected_currency=None,
                converted_value=None, amount_eur=None, error=str(exc), **base,
            )
        if detected.amount is None:
            return ResultRow(
                original_text=text, detected_amount=None,
                detected_currency=detected.currency, converted_value=None,
                amount_eur=None, error="no numeric amount", **base,
            )
        converted = eur = None
        if detected.currency is not None:
            try:
                converted = self.rates.convert(
                    detected.amount, detected.currency,
                    job.requested_currency, self.clock.now,
                )
                eur = self.rates.to_eur(detected.amount, detected.currency, self.clock.now)
            except UnknownCurrencyError:
                pass
        return ResultRow(
            original_text=text,
            detected_amount=detected.amount,
            detected_currency=detected.currency,
            converted_value=None if converted is None else round(converted, 2),
            amount_eur=None if eur is None else round(eur, 2),
            low_confidence=detected.confidence is Confidence.LOW,
            currency_candidates=tuple(detected.candidates),
            error=None if converted is not None else "unknown currency",
            **base,
        )

    #: a locale-based candidate must land within this factor of the
    #: anchor price to be trusted; beyond it we fall back to the
    #: scale-closest candidate.
    RECONCILE_LOCALE_FACTOR = 2.0

    def _reconcile_ambiguous_rows(self, rows: List[ResultRow],
                                  requested_currency: str) -> List[ResultRow]:
        """Job-level disambiguation of symbol-only currencies (Sect. 3.5).

        ``$`` could be a dozen dollars and ``¥`` two currencies.  The
        Measurement server holds the whole job, so it can reconcile:

        * rows whose currency was detected unambiguously anchor the
          product's price scale (their median EUR value);
        * for each ambiguous row, prefer the *vantage point's national
          currency* when it is a candidate AND its implied EUR value
          sits within ``RECONCILE_LOCALE_FACTOR`` of the anchor —
          retailers that geo-localize currencies quote in the visitor's
          money, but a cross-border markup can legitimately exceed the
          anchor, hence the tolerance rather than equality;
        * otherwise pick the candidate whose implied value is closest
          to the anchor on a log scale;
        * with no anchor at all (a store showing the same bare symbol
          to everyone), keep the detector's default guess — consistent
          across all rows, so no *relative* difference is fabricated.

        Rows keep their low-confidence flag either way: the result page
        still shows the red asterisk.
        """
        import math
        from dataclasses import replace

        anchors = [
            r.amount_eur for r in rows
            if r.ok and not r.low_confidence and r.amount_eur is not None
        ]
        if not anchors:
            return rows
        anchors.sort()
        anchor = anchors[len(anchors) // 2]
        if anchor <= 0:
            return rows

        out: List[ResultRow] = []
        for row in rows:
            if (
                not row.low_confidence
                or row.detected_amount is None
                or len(row.currency_candidates) < 2
            ):
                out.append(row)
                continue
            try:
                locale_code = self.coordinator.geodb.country(row.country).currency
            except KeyError:
                locale_code = None

            def eur_for(code: str) -> Optional[float]:
                try:
                    return self.rates.to_eur(
                        row.detected_amount, code, self.clock.now
                    )
                except UnknownCurrencyError:
                    return None

            chosen = None
            if locale_code in row.currency_candidates:
                value = eur_for(locale_code)
                if value is not None and value > 0 and (
                    max(value / anchor, anchor / value)
                    <= self.RECONCILE_LOCALE_FACTOR
                ):
                    chosen = locale_code
            if chosen is None:
                best = None
                for code in row.currency_candidates:
                    value = eur_for(code)
                    if value is None or value <= 0:
                        continue
                    distance = abs(math.log(value / anchor))
                    if best is None or distance < best[0]:
                        best = (distance, code)
                chosen = best[1] if best is not None else row.detected_currency
            if chosen == row.detected_currency:
                out.append(row)
                continue
            eur = eur_for(chosen)
            converted = self.rates.convert(
                row.detected_amount, chosen, requested_currency, self.clock.now
            )
            out.append(replace(
                row,
                detected_currency=chosen,
                amount_eur=None if eur is None else round(eur, 2),
                converted_value=round(converted, 2),
            ))
        return out

    # -- the registration probe (App. 10.2.1) ------------------------------
    def self_test(self) -> bool:
        """Prove this machine runs working Measurement server code.

        Runs the two critical pipelines on a canned page with a known
        answer: Tags Path extraction must find the product price (not
        the decoy) and currency detection must convert USD 699 into the
        exact EUR value of the current rate table.
        """
        from repro.core.tagspath import TagsPath
        from repro.net.geo import Location

        html = (
            "<html><head><title>probe</title></head><body>"
            '<div class="banner"><span class="price">$9</span></div>'
            '<div class="product"><span class="price">USD699</span></div>'
            "</body></html>"
        )
        job = PriceCheckJob(
            job_id="probe", url="http://probe.internal/product/x",
            tags_path=TagsPath(entries=("html", "body", "div.product"),
                               target="span.price"),
            requested_currency="EUR",
            initiator_peer_id="probe",
            initiator_html=html,
            initiator_location=Location(country="ES", region="Spain",
                                        city="Madrid", ip="10.0.0.1"),
            initiator_os="Linux", initiator_browser="Firefox",
        )
        row = self._row_from_page(
            job, html, kind="You", proxy_id="probe",
            location_fields=("ES", "Spain", "Madrid"),
        )
        if not row.ok or row.detected_currency != "USD":
            return False
        expected = round(self.rates.to_eur(699.0, "USD", self.clock.now), 2)
        return row.converted_value == expected

    # -- the job lifecycle (submit → poll → result) -----------------------------
    #
    # "At this point the browser executes AJAX requests to the
    # Measurement server to receive any result updates until the
    # measurement server replies with a 'request finish' response."
    # submit() performs the fan-out and returns the job's JobRecord;
    # poll() and result() are the engine's: rows that have *landed* on
    # its simulated timeline since the last poll plus the finished flag,
    # or the terminal outcome.  The queue tier is the other entry point.

    def submit(self, job: PriceCheckJob) -> JobRecord:
        """Run the fan-out and return the job's record.

        The fetches themselves execute eagerly in the canonical serial
        order — that is what keeps every RNG stream independent of the
        worker-pool size — while the *timing* of each fetch is delegated
        to the engine's worker pool (``engine.submit``), so concurrent
        jobs overlap on the simulated timeline.  A fan-out below the
        quorum fails the record, which is terminal at once.
        """
        record = self.coordinator.jobs[job.job_id]
        return self.engine.submit(
            record, self._execute(job, record),
            on_done=lambda: self.coordinator.job_completed(job.job_id),
        )

    def poll(self, record: JobRecord) -> Tuple[List[Any], bool]:
        """One AJAX poll: (rows landed since last poll, finished flag).

        Rows are delivered a few per poll, in canonical row order, as
        their fetches complete on the simulated timeline (IPCs and PPCs
        respond at different speeds).  After the final ('request
        finish') poll the job is gone: further polls raise
        :class:`~repro.core.errors.UnknownJob`.
        """
        return self.engine.poll(record)

    def result(self, record: JobRecord) -> PriceCheckResult:
        """Drive the job to its terminal state and return the outcome.

        Raises :class:`~repro.core.errors.PriceCheckFailed` with the
        record's ``failure_reason`` when the job was reported failed.
        """
        return self.engine.result(record)

    # -- the fan-out --------------------------------------------------------------
    def _fetch_page_cached(self, job: PriceCheckJob, ipc) -> Tuple[CachedPage, int, bool]:
        """One IPC fetch through the engine's page cache.

        Returns ``(page, retries, was_cache_hit)``.  Only IPC fetches
        are cacheable — their client state is always ``"fresh"`` — and
        only within the cache TTL (simulated seconds on the world
        clock), so simultaneous checks of the same product reuse the
        page instead of re-fetching.
        """
        cache = self.engine.cache  # while disabled: get finds nothing, put keeps nothing
        key = (job.url, ipc.ipc_id, "fresh")
        cached = cache.get(key, self.clock.now)
        if cached is not None:
            return cached, 0, True
        fetch, retries = ipc.fetch_with_retry(
            job.url, timeout_slowdown=self.PROXY_SLOWDOWN_TIMEOUT
        )
        return cache.put(key, fetch, self.clock.now), retries, False

    def _read_ipc_page(
        self, job: PriceCheckJob, proxy_id: str, page: CachedPage
    ) -> ResultRow:
        """Store an IPC page and read its row, each at most once per page.

        The first reader stores the page's diff and names it on the
        cache entry; a later reader in the same diff store stores an
        alias of it.  The row is taken from the entry when this job's
        Tags Path, requested currency and ``now`` match an earlier
        reader's.  A store that raised leaves no name, so the next
        reader stores the page itself.
        """
        fetch = page.fetch
        stored_as = page.stored_as
        if stored_as is not None and stored_as[0] is self.diffstore:
            self.diffstore.store_alias(job.job_id, proxy_id, fetch.html, stored_as[1])
        else:
            self.diffstore.store_response(job.job_id, proxy_id, fetch.html)
            if stored_as is None:
                page.stored_as = (self.diffstore, (job.job_id, proxy_id))
        # the path by its fields: a tuple hashes in C, a dataclass in Python
        path = job.tags_path
        key = (path.entries, path.target, job.requested_currency, self.clock.now)
        row = page.rows.get(key)
        if row is None:
            loc = fetch.location
            row = page.rows[key] = self._row_from_page(
                job, fetch.html, kind="IPC", proxy_id=proxy_id,
                location_fields=(loc.country, loc.region, loc.city),
                ua=(fetch.ua_os, fetch.ua_browser),
            )
        return row

    def _execute(self, job: PriceCheckJob, record: JobRecord) -> List[FetchTask]:
        """The fan-out: returns its fetch timeline.

        The timeline carries one :data:`~repro.core.engine.FetchTask`
        per fetch attempt — a failed fetch still occupies a worker for
        its timeout — plus the zero-cost entry for the initiator's own
        page.  A fan-out that met the quorum leaves its result on the
        record, which is then ``running``; one below it fails the
        record.

        The whole fan-out runs under one ``price_check`` span keyed by
        the job id and chained under the job's latest journey stage (the
        queue tier's ``dispatch``, else ``assign`` or ``retry``); it
        becomes the job's latest stage, under which the engine records
        each ``fetch`` span as its task lands.

        The extractor counts its work in the process-wide
        :data:`~repro.core.tagspath.EXTRACTION_STATS`; what they grew by
        during the fan-out is this server's, and goes to its telemetry.
        """
        tr = self.telemetry.tracer
        latest = record.journey
        before = EXTRACTION_STATS.snapshot()
        try:
            with tr.span(
                "price_check", trace_id=job.job_id,
                parent_id=latest.span_id if latest is not None else None,
                job_id=job.job_id, url=job.url, server=self.name,
                transport=self.transport_label,
            ) as root:
                tasks = self._execute_fanout(job, record, tr)
        finally:
            EXTRACTION_STATS.add_since(before, self._m_extract)
        if tr.enabled and record.state == RUNNING:
            record.journey = root
        return tasks

    def _execute_fanout(
        self, job: PriceCheckJob, record: JobRecord, tr
    ) -> List[FetchTask]:
        domain, _ = parse_url(job.url)
        result = PriceCheckResult(
            job_id=job.job_id,
            url=job.url,
            domain=domain,
            requested_currency=job.requested_currency,
            time=self.clock.now,
            third_party_domains=tuple(job.third_party_domains),
        )
        tasks: List[FetchTask] = []

        # The initiator's own observation ("You") — the page arrived
        # with the request, so it costs the pool nothing.
        self.diffstore.store_reference(job.job_id, job.initiator_html)
        loc = job.initiator_location
        result.rows.append(
            self._row_from_page(
                job, job.initiator_html, kind="You",
                proxy_id=job.initiator_peer_id,
                location_fields=(loc.country, loc.region, loc.city),
                ua=(job.initiator_os, job.initiator_browser),
            )
        )
        tasks.append((0.0, True, "You", job.initiator_peer_id, None))

        # Step 3.1: all IPCs fetch the page.  Each fetch carries its own
        # bounded retry budget; an IPC that still fails is dropped from
        # this job — counted, never silently (Sect. 5's per-proxy
        # timeout, applied per fetch instead of statically).
        for ipc in self.ipcs:
            duration = fetch_duration(
                self._latency, self.location, ipc.location,
                slowdown=min(ipc.slowdown, self.PROXY_SLOWDOWN_TIMEOUT),
            )
            try:
                page, retries, cache_hit = self._fetch_page_cached(job, ipc)
            except ProxyFetchError:
                self.stats.ipc_failures += 1
                tasks.append((duration, False, "IPC", ipc.ipc_id, None))
                continue
            if cache_hit:
                self.stats.page_cache_hits += 1
                duration = CACHE_HIT_SECONDS
            self.stats.ipc_fetches += 1
            self.stats.ipc_retries += retries
            result.rows.append(self._read_ipc_page(job, ipc.ipc_id, page))
            tasks.append((duration, True, "IPC", ipc.ipc_id, cache_hit))

        # Step 3.2: the selected PPCs fetch the page.  Volunteer peers
        # are the least reliable vantage points: a peer may be gone,
        # time out, answer with an error, or return a mangled reply.
        # Every outcome is accounted — the price check degrades to fewer
        # vantage points, it never mistakes a lost reply for data.
        for peer_id in job.ppc_ids:
            duration = fetch_duration(
                self._latency, self.location, self.overlay.location_of(peer_id)
            )
            try:
                channel = self.overlay.connect(peer_id, src=self.name)
                reply = channel.send({"type": "remote_page_request", "url": job.url})
            except PeerTimeout:
                self.stats.ppc_timeouts += 1
                tasks.append((duration, False, "PPC", peer_id, None))
                continue
            except ConnectionError:
                self.stats.ppc_dropped += 1
                tasks.append((duration, False, "PPC", peer_id, None))
                continue
            if not self._valid_ppc_reply(reply):
                self.stats.ppc_corrupt += 1
                tasks.append((duration, False, "PPC", peer_id, None))
                continue
            if "error" in reply:
                self.stats.ppc_dropped += 1
                tasks.append((duration, False, "PPC", peer_id, None))
                continue
            self.stats.ppc_ok += 1
            self.diffstore.store_response(job.job_id, peer_id, reply["html"])
            result.rows.append(
                self._row_from_page(
                    job, reply["html"], kind="PPC", proxy_id=peer_id,
                    location_fields=(
                        reply["country"], reply["region"], reply["city"],
                    ),
                    ua=(reply.get("os"), reply.get("browser")),
                    used_doppelganger=reply.get("used_doppelganger", False),
                )
            )
            tasks.append((duration, True, "PPC", peer_id, None))

        expected = 1 + len(self.ipcs) + len(job.ppc_ids)
        result.vantage_expected = expected
        result.degraded = len(result.rows) < expected
        if result.degraded:
            self.stats.degraded_jobs += 1
        if len(result.rows) < self.quorum:
            # Degrading below the quorum turns the job into an explicit
            # failure: the Coordinator releases it and the add-on shows
            # an error instead of a one-point "comparison".
            self.stats.quorum_failures += 1
            self.coordinator.fail_job(
                job.job_id,
                f"quorum not met ({len(result.rows)}/{self.quorum})",
            )
            return tasks

        with tr.span("parse", rows=len(result.rows)):
            result.rows = self._reconcile_ambiguous_rows(
                result.rows, job.requested_currency
            )
        with tr.span("persist", rows=len(result.rows)):
            self._persist(job, result)
        record.result = result
        record.state = RUNNING
        self.jobs_processed += 1
        return tasks

    @staticmethod
    def _valid_ppc_reply(reply) -> bool:
        """Schema check against corrupt replies: a usable observation
        needs a page and a resolvable location (or an explicit error),
        and every field a row keeps of it must be a short string or a
        bool — the reply comes from a volunteer's machine."""
        if not isinstance(reply, dict):
            return False
        if "error" in reply:
            return True
        labels = [reply.get(k) for k in ("country", "region", "city")]
        labels += [reply[k] for k in ("os", "browser") if k in reply]
        return (
            isinstance(reply.get("html"), str)
            and all(isinstance(v, str) and len(v) <= PPC_FIELD_MAX for v in labels)
            and isinstance(reply.get("used_doppelganger", False), bool)
        )

    # -- persistence ---------------------------------------------------------------
    def _persist(self, job: PriceCheckJob, result: PriceCheckResult) -> None:
        """Land the job in one write: ``sp_record_job`` stores its
        request row and its response rows in one round trip and one
        transaction, whole or not at all.

        Under pipelined load the Database server is the next bottleneck
        after the fetches, so a job must not pay one round trip per
        vantage point, nor one per table.  The response rows go out
        column-wise (:data:`RESPONSE_COLUMNS`), one value tuple per
        :class:`ResultRow`.
        """
        now = self.clock.now
        batch = {"cols": RESPONSE_COLUMNS, "rows": [
            (row.detected_amount, row.amount_eur, row.city, row.country,
             row.detected_currency, row.error, row.kind, row.low_confidence,
             row.original_text, row.proxy_id, row.region, now,
             row.used_doppelganger)
            for row in result.rows
        ]}
        self.db.sp_record_job(
            job.job_id, job.initiator_peer_id, job.url, result.domain, now, batch
        )
