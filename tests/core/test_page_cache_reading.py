"""A page-cache hit reads nothing twice.

In a burst — checks of one product inside the page-cache TTL — every IPC
page after the first check's is a cache hit.  The first check that reads
a page stores its diff and extracts its row; every later one stores an
alias of that diff and takes the same row when its Tags Path, requested
currency and ``now`` match.  These tests hold the reused results to what
reading the served page afresh gives, and hold the cache (with what its
entries carry) to one TTL window.
"""

from collections import Counter

import pytest

from repro.core.diffstorage import DiffStorage
from repro.core.engine import PageCache
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.web import html
from repro.web.pricing import CountryMultiplierPricing, UniformPricing

from .conftest import SMALL_IPC_SITES, _store
from .stored_pages import aliases_of, diffs_of, reference_of

TTL = 30.0
WAVE = 8
#: a wave of users spread over places, so PPC selection has peers
USERS = (("ES", "Madrid"), ("ES", "Barcelona"), ("ES", "Valencia"), ("US", None),
         ("FR", None), ("DE", "Berlin"), ("US", "Tennessee"), ("ES", None))
PRODUCTS = ("uniform.example", "geo.example")


def _make_world():
    world = SheriffWorld.create(seed=42)
    _store(world, "uniform.example", "ES", UniformPricing())
    _store(
        world, "geo.example", "US",
        CountryMultiplierPricing({"CA": 1.30, "GB": 1.10, "JP": 1.05}),
        currency_strategy="geo",
    )
    return world


@pytest.fixture
def world():
    return _make_world()


class Burst:
    """A burst-shaped deployment with its reads recorded.

    ``fetched`` holds each ``(url, ipc)`` page an IPC fetched since the
    current wave began (with the cache on, the page every check of the
    wave was served), ``n_fetches`` counts those fetches, ``given``
    holds every page handed to the diff store, ``jobs`` the
    :class:`PriceCheckJob` of every executed job and ``unreconciled``
    its rows before the job-level currency reconciliation.
    """

    def __init__(self, world, monkeypatch, ttl=TTL, workers=16, backend="memory"):
        self.world = world
        self.sheriff = sheriff = PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            job_queue=True, page_cache_ttl=ttl, max_fetch_workers=workers,
            db_backend=backend,
        )
        self.users = [
            sheriff.install_addon(world.make_browser(country, city))
            for country, city in USERS
        ]
        self.fetched, self.given, self.jobs, self.unreconciled = {}, {}, {}, {}
        self.n_fetches = 0
        for ipc in sheriff.ipcs:
            monkeypatch.setattr(ipc, "fetch_with_retry", self._recording_fetch(ipc))
        store = sheriff.diffstore
        for name in ("store_response", "store_alias"):
            monkeypatch.setattr(store, name, self._recording_store(getattr(store, name)))
        for server in sheriff.measurement_servers.values():
            monkeypatch.setattr(server, "_execute", self._recording_execute(server))

    def _recording_fetch(self, ipc):
        original = ipc.fetch_with_retry

        def fetch_with_retry(url, **kwargs):
            fetch, retries = original(url, **kwargs)
            self.fetched[(url, ipc.ipc_id)] = fetch
            self.n_fetches += 1
            return fetch, retries
        return fetch_with_retry

    def _recording_store(self, original):
        def store(job_id, proxy_id, html, *args):
            result = original(job_id, proxy_id, html, *args)
            self.given[(job_id, proxy_id)] = html
            return result
        return store

    def _recording_execute(self, server):
        original_execute = server._execute
        original_reconcile = server._reconcile_ambiguous_rows

        def execute(job, record):
            self.jobs[job.job_id] = (server, job)

            def reconcile(rows, currency):
                self.unreconciled[job.job_id] = list(rows)
                return original_reconcile(rows, currency)
            server._reconcile_ambiguous_rows = reconcile
            try:
                return original_execute(job, record)
            finally:
                del server._reconcile_ambiguous_rows
        return execute

    def product(self, domain):
        store = self.world.internet.site(domain)
        return store.product_url(store.catalog.products[0].product_id)

    def wave(self, domain, currencies=("EUR",)):
        """One wave: every user checks ``domain``'s product at once."""
        self.fetched, self.n_fetches = {}, 0
        url = self.product(domain)
        pending = [
            (user, user.submit_price_check(url, currency))
            for user in self.users for currency in currencies
        ]
        results = [user.collect(check) for user, check in pending]
        if self.sheriff.engine.cache.enabled:
            assert self.n_fetches == len(self.sheriff.ipcs)  # one page per IPC
            for result in results:
                self.assert_rows_read_from_served_pages(result)
        return results

    def assert_rows_read_from_served_pages(self, result):
        server, job = self.jobs[result.job_id]
        ipc_rows = [r for r in self.unreconciled[result.job_id] if r.kind == "IPC"]
        assert ipc_rows, "no IPC row to check"
        for row in ipc_rows:
            fetch = self.fetched[(job.url, row.proxy_id)]
            loc = fetch.location
            assert row == server._row_from_page(
                job, fetch.html, kind="IPC", proxy_id=row.proxy_id,
                location_fields=(loc.country, loc.region, loc.city),
                ua=(fetch.ua_os, fetch.ua_browser),
            )
            assert self.given[(job.job_id, row.proxy_id)] is fetch.html

    def rows(self, results):
        return [(r.job_id, r.rows) for r in results]


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    return request.param


class TestBurst:
    def test_rows_equal_a_fresh_read_of_the_served_page(self, world, monkeypatch, backend):
        burst = Burst(world, monkeypatch, backend=backend)
        for domain in PRODUCTS:
            results = burst.wave(domain)  # checks every row against a fresh read
            assert len(results) == WAVE
            world.clock.advance(3600.0)
        assert burst.sheriff.engine.cache.hits == len(PRODUCTS) * (WAVE - 1) * len(SMALL_IPC_SITES)

    def test_restore_gives_every_stored_page_back(self, world, monkeypatch, backend):
        burst = Burst(world, monkeypatch, backend=backend)
        for domain in PRODUCTS:
            burst.wave(domain)
            world.clock.advance(3600.0)
        store = burst.sheriff.diffstore
        assert len(aliases_of(store)) > 0
        for (job_id, proxy_id), html in burst.given.items():
            assert store.restore(job_id, proxy_id) == html

    def test_one_alias_per_hit_on_a_stored_page(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        for domain in PRODUCTS:
            burst.wave(domain)
            world.clock.advance(3600.0)
        cache, store = burst.sheriff.engine.cache, burst.sheriff.diffstore
        # fault-free: the first reader of every page stored it
        assert len(aliases_of(store)) == cache.hits
        assert len(diffs_of(store)) == len(burst.given) - cache.hits

    def test_reused_rows_are_the_first_readers_rows(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        results = burst.wave("uniform.example")
        by_path = {}
        for result in results:
            job = burst.jobs[result.job_id][1]
            ipc_rows = [r for r in burst.unreconciled[result.job_id] if r.kind == "IPC"]
            first = by_path.setdefault(job.tags_path, ipc_rows)
            assert all(a is b for a, b in zip(first, ipc_rows))
        assert len(by_path) < WAVE  # some reader did reuse a row

    def test_another_tags_path_gets_its_own_row(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        odd_one = burst.users[3]  # highlights a related product's price
        monkeypatch.setattr(odd_one, "select_price_element", lambda elements: [
            e for e in elements if e.tag == "span" and "sale-price" in e.classes][-1])
        results = burst.wave("uniform.example")  # every row against a fresh read
        texts = {
            burst.jobs[r.job_id][1].initiator_peer_id: {
                row.original_text for row in r.rows if row.kind == "IPC"}
            for r in results
        }
        assert texts[odd_one.peer_id].isdisjoint(texts[burst.users[0].peer_id])

    def test_a_cached_page_is_cut_once(self, world, monkeypatch):
        """The first reader of a cached page keeps its cut on the entry;
        a later reader whose row key misses the entry's rows (here: one
        user asks for USD) reads its row from that cut, so no page is
        cut twice while its entry lives."""
        cuts = Counter()  # id of a cut page -> cuts
        split = html._TAG_SPLIT

        def counting_split(page):
            cuts[id(page)] += 1
            return split(page)

        monkeypatch.setattr(html, "_TAG_SPLIT", counting_split)
        burst = Burst(world, monkeypatch)
        currencies = ["EUR"] * WAVE
        currencies[3] = "USD"
        for domain in PRODUCTS:
            burst.fetched, burst.n_fetches, url = {}, 0, burst.product(domain)
            cuts.clear()
            pending = [
                (user, user.submit_price_check(url, currency))
                for user, currency in zip(burst.users, currencies)
            ]
            results = [user.collect(check) for user, check in pending]
            pages = [fetch.html for fetch in burst.fetched.values()]
            assert len(pages) == len(SMALL_IPC_SITES)
            assert [cuts[id(page)] for page in pages] == [1] * len(pages)
            entries = burst.sheriff.engine.cache._pages.values()
            assert all(len(entry.rows) > 1 for entry in entries)  # rows missed the memo
            for result in results:  # and were read right
                burst.assert_rows_read_from_served_pages(result)
            world.clock.advance(3600.0)

    def test_worker_count_changes_no_row(self, monkeypatch):
        def run(workers):
            burst = Burst(_make_world(), monkeypatch, workers=workers)
            waves = []
            for domain in PRODUCTS:
                waves.append(burst.rows(burst.wave(domain)))
                burst.world.clock.advance(3600.0)
            return waves
        assert run(1) == run(16)

    def test_cache_off_reads_every_page(self, world, monkeypatch):
        burst = Burst(world, monkeypatch, ttl=0.0)
        results = burst.wave("uniform.example")
        assert len(results) == WAVE
        assert burst.n_fetches == WAVE * len(SMALL_IPC_SITES)
        assert len(aliases_of(burst.sheriff.diffstore)) == 0
        assert burst.sheriff.engine.cache._pages == {}

    def test_second_currency_gets_its_own_row(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        results = burst.wave("uniform.example", currencies=("EUR", "USD"))
        eur = [r for r in results if r.requested_currency == "EUR"]
        usd = [r for r in results if r.requested_currency == "USD"]
        row = lambda result: next(r for r in result.rows if r.kind == "IPC")
        assert row(eur[0]).converted_value != row(usd[0]).converted_value
        entry = next(iter(burst.sheriff.engine.cache._pages.values()))
        assert {currency for *_, currency, _ in entry.rows} == {"EUR", "USD"}

    def test_later_now_inside_the_ttl_gets_its_own_row(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        user = burst.users[0]
        url = burst.product("uniform.example")
        first = user.collect(user.submit_price_check(url))
        burst.assert_rows_read_from_served_pages(first)
        world.clock.advance(TTL / 3)
        later = user.collect(user.submit_price_check(url))
        burst.assert_rows_read_from_served_pages(later)
        assert burst.sheriff.engine.cache.hits == len(SMALL_IPC_SITES)  # all of later's
        entry = next(iter(burst.sheriff.engine.cache._pages.values()))
        assert len({now for *_, now in entry.rows}) == 2
        ipc = lambda result: [r for r in result.rows if r.kind == "IPC"]
        assert not any(a is b for a, b in zip(ipc(first), ipc(later)))


def _page(price, ad, extra=""):
    return (
        f"<html><body><div class='ad'>{ad}</div>{extra}"
        f"<div class='product'><span class='price'>{price}</span></div>"
        "</body></html>"
    )


class TestDiffStorageAlias:
    """``store_alias``: a page stored as the page another name holds."""

    @staticmethod
    def _store():
        store = DiffStorage()
        store.store_reference("j1", _page("€10", "ad-1"))
        store.store_response("j1", "ipc-0", _page("$12", "ad-2", "<p>promo</p>"))
        store.store_reference("j2", _page("€11", "ad-3"))
        return store

    def test_alias_to_a_missing_target_raises(self):
        store = self._store()
        page = _page("$12", "ad-2", "<p>promo</p>")
        for target in (("j1", "ipc-9"), ("j9", "ipc-0"), ("j2", "ipc-0")):
            with pytest.raises(KeyError):
                store.store_alias("j2", "ipc-0", page, target)
        with pytest.raises(KeyError):  # the target lives in another store
            DiffStorage().store_alias("j2", "ipc-0", page, ("j1", "ipc-0"))
        with pytest.raises(KeyError):  # no reference for the alias's own job
            store.store_alias("j9", "ipc-0", page, ("j1", "ipc-0"))
        assert len(aliases_of(store)) == 0

    def test_alias_of_an_alias_resolves_to_the_original(self):
        store = self._store()
        page = _page("$12", "ad-2", "<p>promo</p>")
        store.store_reference("j3", _page("€13", "ad-4"))
        store.store_alias("j2", "ipc-0", page, ("j1", "ipc-0"))
        store.store_alias("j3", "ipc-0", page, ("j2", "ipc-0"))
        original = diffs_of(store)[("j1", "ipc-0")]
        assert aliases_of(store)[("j3", "ipc-0")] == (reference_of(store, "j1"), original)
        assert store.restore("j3", "ipc-0") == page

    def test_aliases_cost_no_stored_chars(self):
        store = self._store()
        stored, naive = store.stored_chars(), store.naive_chars_seen
        page = _page("$12", "ad-2", "<p>promo</p>")
        store.store_alias("j2", "ipc-0", page, ("j1", "ipc-0"))
        assert store.stored_chars() == stored
        assert store.naive_chars_seen == naive + len(page)
        assert (len(diffs_of(store)), len(aliases_of(store))) == (1, 1)

    def test_interleaved_jobs_restore_exactly(self):
        store = DiffStorage()
        pages = {}
        for job in ("j1", "j2", "j3"):
            store.store_reference(job, _page(f"€1{job[-1]}", f"ad-{job}"))
        for i in range(4):
            for job in ("j1", "j2", "j3"):
                proxy = f"ipc-{i}"
                if job == "j1":  # the first reader stores each page
                    pages[(job, proxy)] = _page(f"${i}", f"ad-{i}", "<b>x</b>" * i)
                    store.store_response(job, proxy, pages[(job, proxy)])
                else:
                    pages[(job, proxy)] = pages[("j1", proxy)]
                    store.store_alias(job, proxy, pages[(job, proxy)], ("j1", proxy))
                store.store_response(job, f"ppc-{i}", _page(f"£{i}", job))
                pages[(job, f"ppc-{i}")] = _page(f"£{i}", job)
        for (job, proxy), html in pages.items():
            assert store.restore(job, proxy) == html

    def test_a_target_stored_again_keeps_its_aliases_exact(self):
        store = self._store()
        page = _page("$12", "ad-2", "<p>promo</p>")
        store.store_alias("j2", "ipc-0", page, ("j1", "ipc-0"))
        store.store_response("j1", "ipc-0", _page("$99", "ad-9"))
        assert store.restore("j2", "ipc-0") == page
        assert store.restore("j1", "ipc-0") == _page("$99", "ad-9")

    def test_a_name_is_a_diff_or_an_alias(self):
        store = self._store()
        page = _page("$12", "ad-2", "<p>promo</p>")
        store.store_alias("j1", "ipc-0", page, ("j1", "ipc-0"))  # its own page
        assert (len(diffs_of(store)), len(aliases_of(store))) == (1, 0)
        store.store_response("j2", "ipc-0", _page("$1", "ad"))
        store.store_alias("j2", "ipc-0", page, ("j1", "ipc-0"))
        assert (len(diffs_of(store)), len(aliases_of(store))) == (1, 1)
        store.store_response("j2", "ipc-0", _page("$1", "ad"))
        assert (len(diffs_of(store)), len(aliases_of(store))) == (2, 0)
        assert store.restore("j2", "ipc-0") == _page("$1", "ad")


class TestEviction:
    """The cache holds one TTL window of pages, with what they carry."""

    def test_distinct_urls_over_ten_ttls_leave_one_window(self):
        cache = PageCache(ttl=TTL)
        n, span = 2000, 10 * TTL
        times = [i * span / n for i in range(n)]
        oldest_live = 0
        for i, now in enumerate(times):
            key = (f"http://s.example/p{i}", "ipc-0", "fresh")
            assert cache.get(key, now) is None
            cache.put(key, object(), now)
            while now - times[oldest_live] > TTL:
                oldest_live += 1
            assert len(cache._pages) <= i + 1 - oldest_live  # puts within one TTL
        assert (cache.hits, cache.misses) == (0, n)

    def test_hits_and_misses_are_unchanged(self):
        cache = PageCache(ttl=TTL)
        a, b = ("http://s.example/a", "ipc-0", "fresh"), ("http://s.example/b", "ipc-0", "fresh")
        cache.put(a, "page-a", 0.0)
        cache.put(b, "page-b", 10.0)
        assert cache.get(a, TTL).fetch == "page-a"  # exactly at the TTL: a hit
        assert cache.get(a, TTL + 1.0) is None  # expired: a miss
        cache.put(a, "page-a2", TTL + 1.0)  # evicts nothing live, moves a back
        assert list(cache._pages) == [b, a]
        assert cache.get(b, TTL + 5.0).fetch == "page-b"
        assert (cache.hits, cache.misses) == (2, 1)
        cache.put(("http://s.example/c", "ipc-0", "fresh"), "page-c", 2 * TTL + 1.0)
        assert list(cache._pages) == [a, ("http://s.example/c", "ipc-0", "fresh")]

    def test_disabled_cache_keeps_nothing(self):
        cache = PageCache(ttl=0.0)
        entry = cache.put(("u", "ipc-0", "fresh"), "page", 0.0)
        assert entry.fetch == "page"
        assert cache.get(("u", "ipc-0", "fresh"), 0.0) is None
        assert cache._pages == {} and (cache.hits, cache.misses) == (0, 0)

    def test_a_bursts_rows_go_with_their_pages(self, world, monkeypatch):
        burst = Burst(world, monkeypatch)
        cache = burst.sheriff.engine.cache
        burst.wave("uniform.example")
        first_wave = list(cache._pages.values())
        assert first_wave and all(entry.rows for entry in first_wave)
        world.clock.advance(TTL + 1.0)
        burst.wave("geo.example")
        live = list(cache._pages.values())
        assert not any(entry in live for entry in first_wave)
        assert all(world.clock.now - entry.stored_at <= TTL for entry in live)
        assert sum(len(entry.rows) for entry in live) <= len(live) * WAVE
