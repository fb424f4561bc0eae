"""The extraction engine is result-identical to the legacy oracle.

Three layers of the claim, mirroring the crypto lockstep suite:

* **candidate** — the skeleton scan's spans give, for every element of
  a page, the same bottom-up path and text as the tree-walking oracle
  (``tests/oracles/tagspath_legacy.py``) reads off the parsed tree;
* **text / price** — ``extract_price_text`` and the downstream
  ``detect_price`` agree with the oracle, whichever store layout,
  product, or remote nonce produced the page, plan memo warm or cold
  (``tests/core/test_page_family.py`` holds the memo to whole jobs);
* **rows** — a full deployment produces byte-identical database rows
  with the oracle patched in for the production extractor (on the
  default sqlite engine, queued as well as direct dispatch).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tagspath import (
    EXTRACTION_MEMO_MAX,
    EXTRACTION_MEMO_PAGE_MAX,
    EXTRACTION_STATS,
    _plans,
    _scan,
    _span_path,
    _text_of,
    clear_extraction_memo,
    extract_price_text,
)
from repro.currency.detect import detect_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.obs import Telemetry
from repro.web.catalog import make_catalog
from repro.web import html as html_mod
from repro.web.html import find_all, parse, split_tags
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore

from tests.oracles import tagspath_legacy
from tests.oracles.tagspath_legacy import _path_for, build_tags_path

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()


def _ctx(nonce):
    return RequestContext(
        time=0.0,
        location=_GEODB.make_location("ES", "Madrid"),
        request_nonce=nonce,
    )


def _recorded_check(layout_seed, product_index):
    store = EStore(
        domain="equiv.example",
        country_code="ES",
        catalog=make_catalog("equiv.example", size=6, rng=random.Random(1)),
        pricing=UniformPricing(),
        geodb=_GEODB,
        rates=_RATES,
        layout_seed=layout_seed,
    )
    product = store.catalog.products[product_index]
    initiator = store.fetch(f"/product/{product.product_id}", _ctx(0))
    doc = parse(initiator.html)
    product_div = find_all(doc, cls="product")[0]
    price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
    return store, product, build_tags_path(doc, price_el)


@given(
    layout_seed=st.integers(0, 500),
    product_index=st.integers(0, 5),
    remote_nonce=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fast_equals_legacy_across_layouts(layout_seed, product_index,
                                           remote_nonce):
    store, product, path = _recorded_check(layout_seed, product_index)
    remote = store.fetch(f"/product/{product.product_id}", _ctx(remote_nonce))

    clear_extraction_memo()
    legacy_text = tagspath_legacy.extract_price_text(remote.html, path)
    fast_text = extract_price_text(remote.html, path)
    memo_text = extract_price_text(remote.html, path)  # memo hit
    assert fast_text == legacy_text
    assert memo_text == legacy_text
    assert legacy_text is not None
    assert detect_price(fast_text) == detect_price(legacy_text)
    assert detect_price(fast_text).amount == pytest.approx(
        remote.displayed_amount
    )


class TestIndex:
    def test_paths_match_legacy_builder(self):
        """The path and text read off a skeleton span == what the tree
        gives, for every element of a page."""
        store, product, _ = _recorded_check(layout_seed=7, product_index=2)
        html = store.fetch(f"/product/{product.product_id}", _ctx(3)).html
        root = parse(html)
        parts = split_tags(html)[0]
        by_signature = {}
        for element in find_all(root):
            by_signature.setdefault(element.signature(), []).append(element)
        for signature, elements in by_signature.items():
            close_sigs, spans, (root_open, root_close) = _scan(parts[1::2], signature)
            assert parts[2 * root_open + 1] == "<html>"
            assert parts[2 * root_close + 1] == "</html>"
            assert len(spans) == len(elements)
            for element, span in zip(elements, spans):
                assert _span_path(close_sigs, span) == _path_for(root, element)
                slots = parts[2 * span[2] + 2:2 * span[3] + 1:2]
                assert _text_of(slots) == element.text()

    def test_missing_target_returns_none(self):
        html = "<html><body><p>no price</p></body></html>"
        root = parse(html)
        path = build_tags_path(root, find_all(root, tag="p")[0])
        missing = type(path)(entries=path.entries, target="span.absent")
        assert extract_price_text(html, missing) is None
        assert tagspath_legacy.extract_price_element(root, missing) is None


class TestMemo:
    def test_memo_hit_skips_reparse(self):
        store, product, path = _recorded_check(layout_seed=3,
                                               product_index=1)
        html = store.fetch(f"/product/{product.product_id}", _ctx(5)).html
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        first = extract_price_text(html, path)
        second = extract_price_text(html, path)
        assert first == second
        assert EXTRACTION_STATS.pages_parsed == 1
        assert EXTRACTION_STATS.memo_hits == 1

    def test_memo_is_bounded(self):
        _, _, path = _recorded_check(layout_seed=3, product_index=1)
        clear_extraction_memo()
        for n in range(EXTRACTION_MEMO_MAX + 20):
            extract_price_text(f'<html><p class="c{n}">x</p></html>', path)
        assert len(_plans) == EXTRACTION_MEMO_MAX
        # least recently *used* goes first: a hit renews its entry
        oldest = next(iter(_plans))
        extract_price_text(oldest[0].replace(">", ">text ", 2), path)
        extract_price_text("<html><b>one more</b></html>", path)
        assert oldest in _plans and len(_plans) == EXTRACTION_MEMO_MAX

    def test_hostile_pages_cannot_grow_either_memo(self):
        """PPC pages are untrusted: neither memo may hold more than its
        entry cap times its per-entry size cap, whatever is fed in."""
        _, _, path = _recorded_check(layout_seed=3, product_index=1)
        clear_extraction_memo()
        assert not html_mod._token_memo
        long_tokens = "".join(
            f'<div class="{n:0{html_mod.TOKEN_MEMO_KEY_MAX}d}">' for n in range(10_000)
        )
        extract_price_text(long_tokens, path)
        assert not html_mod._token_memo  # too long to keep, every one
        short_tokens = "".join(f"<i{n}>" for n in range(10_000))
        extract_price_text(short_tokens, path)
        assert 0 < len(html_mod._token_memo) <= html_mod.TOKEN_MEMO_MAX
        assert all(
            len(raw) <= html_mod.TOKEN_MEMO_KEY_MAX for raw in html_mod._token_memo
        )
        # both skeletons are over the cap: scanned, never kept
        assert min(len(long_tokens), len(short_tokens)) > EXTRACTION_MEMO_PAGE_MAX
        assert not _plans
        # text is not part of the key: a page of any size costs its
        # skeleton, and shares the plan of the small page with its tags
        small = "<html><body>x</body></html>"
        oversized = "<html><body>" + "x" * EXTRACTION_MEMO_PAGE_MAX + "</body></html>"
        extract_price_text(small, path)
        extract_price_text(oversized, path)
        assert list(_plans) == [("<html><body></body></html>", path)]

    def test_clearing_the_extraction_memo_clears_the_token_memo(self):
        _, _, path = _recorded_check(layout_seed=3, product_index=1)
        page = "<html><body>x</body></html>"
        clear_extraction_memo()
        extract_price_text(page, path)
        assert html_mod._token_memo and _plans
        parts, skeleton = html_mod.split_tags(page)
        assert html_mod.split_tags(page)[0] is parts
        assert skeleton == "<html><body></body></html>"
        assert any(key[0] is skeleton for key in _plans)  # keyed on the cut's string
        clear_extraction_memo()
        assert not html_mod._token_memo and not _plans
        assert html_mod._last_split == ("", ([""], ""))

    def test_unparseable_page_memoized_as_none(self):
        _, _, path = _recorded_check(layout_seed=3, product_index=1)
        clear_extraction_memo()
        assert extract_price_text("<html><div></html>", path) is None
        assert extract_price_text("<html><div></html>", path) is None
        assert tagspath_legacy.extract_price_text(
            "<html><div></html>", path
        ) is None


class TestTelemetry:
    def test_counters_mirror_stats_when_bound(self):
        """The extractor counts in plain ints; whoever ran the work adds
        their growth to its own counters (a Measurement server does so
        once per fan-out)."""
        store, product, path = _recorded_check(layout_seed=11,
                                               product_index=0)
        html = store.fetch(f"/product/{product.product_id}", _ctx(9)).html
        registry = Telemetry().registry
        counters = {
            name: registry.counter(f"sheriff_extract_{name}_total")
            for name in EXTRACTION_STATS.__slots__
        }
        clear_extraction_memo()
        before = EXTRACTION_STATS.snapshot()
        extract_price_text(html, path)
        extract_price_text(html, path)
        EXTRACTION_STATS.add_since(before, counters)
        exposition = registry.render_exposition()
        assert "sheriff_extract_pages_parsed_total 1" in exposition
        assert "sheriff_extract_memo_hits_total 1" in exposition
        assert "sheriff_extract_candidates_pruned_total" in exposition
        assert "sheriff_extract_lcs_cells_total" in exposition

    def test_unbound_extraction_still_counts_stats(self):
        store, product, path = _recorded_check(layout_seed=11,
                                               product_index=0)
        html = store.fetch(f"/product/{product.product_id}", _ctx(9)).html
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        extract_price_text(html, path)
        assert EXTRACTION_STATS.pages_parsed == 1


class TestDeploymentRowIdentity:
    """Same seeded workload, rows identical fast vs legacy extraction."""

    def _results(self, job_queue):
        from repro.workloads.deployment import (
            DeploymentConfig,
            LiveDeployment,
        )

        clear_extraction_memo()
        config = DeploymentConfig.test_scale()
        config.n_requests = 30
        config.job_queue = job_queue
        dataset = LiveDeployment(config).run()
        return [(r.job_id, r.domain, r.rows) for r in dataset.results]

    @pytest.mark.parametrize("job_queue", [False, True])
    def test_rows_identical(self, job_queue, monkeypatch):
        fast = self._results(job_queue)
        monkeypatch.setattr(
            "repro.core.measurement.extract_price_text",
            tagspath_legacy.extract_price_text,
        )
        legacy = self._results(job_queue)
        assert len(fast) > 0
        assert fast == legacy
