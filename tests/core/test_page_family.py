"""The page-family contract.

One price check is one product page fetched from ~35 vantage points: a
family of pages that share their tags and differ in a few text holes.
``repro.core.tagspath`` and ``repro.core.diffstorage`` both work once per
tag *skeleton* and reuse the result for every page that has it.  This
suite holds that reuse to the per-page oracles:

* extraction equals ``tests/oracles/tagspath_legacy.py`` on every page of
  every family, plan memo warm and cold, and scans at most once per
  distinct skeleton of a job;
* a memo hit cannot leak one page's text into another's answer, nor skip
  a check that depends on the page's text;
* hostile pages cannot grow the plan memo past entries × size cap;
* every stored page restores byte-exactly — in job order, interleaved
  across jobs, stored twice — at no more than the line-level oracle's
  size (``tests/oracles/diffstorage_lines.py``), and the matcher's work
  is bounded.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import diffstorage
from repro.core.diffstorage import DiffStorage
from repro.core.tagspath import (
    EXTRACTION_MEMO_MAX,
    EXTRACTION_MEMO_PAGE_MAX,
    EXTRACTION_STATS,
    TagsPath,
    _plans,
    clear_extraction_memo,
    extract_price_text,
)
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import find_all, parse, split_tags
from repro.web.pricing import (
    CountryMultiplierPricing,
    RequestContext,
    UniformPricing,
)
from repro.web.store import PRICE_STYLES, EStore

from tests.core.stored_pages import diffs_of, reference_of
from tests.oracles import tagspath_legacy
from tests.oracles.tagspath_legacy import build_tags_path
from tests.oracles.diffstorage_lines import LineDiffStorage

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()
_VANTAGES = ("ES", "US", "GB", "JP", "DE", "FR", "CA", "SE", "PL", "IT")
N_JOBS = 42
PAGES_PER_JOB = 14


def _skeleton(html):
    return split_tags(html)[1]


def _job(seed):
    """One check: the store, the recorded path, the initiator's page and
    the pages the other vantage points got (a different visitor each)."""
    rng = random.Random(seed)
    domain = f"family{seed}.example"
    store = EStore(
        domain=domain,
        country_code=rng.choice(("ES", "US", "GB", "JP")),
        catalog=make_catalog(domain, size=7, rng=random.Random(seed)),
        pricing=(
            UniformPricing() if seed % 3
            else CountryMultiplierPricing({"CA": 1.3, "GB": 1.1, "JP": 1.05})
        ),
        geodb=_GEODB,
        rates=_RATES,
        currency_strategy="geo" if seed % 2 else "local",
        layout_seed=seed,
    )
    store.price_style = PRICE_STYLES[seed % len(PRICE_STYLES)]
    product = store.catalog.products[seed % 7]

    def fetch(nonce):
        ctx = RequestContext(
            time=float(seed),
            location=_GEODB.make_location(_VANTAGES[(seed + nonce) % len(_VANTAGES)]),
            first_party_cookies={"sid": f"visitor-{nonce}"} if nonce % 2 else {},
            request_nonce=nonce,
        )
        return store.fetch(f"/product/{product.product_id}", ctx).html

    reference = fetch(0)
    doc = parse(reference)
    product_div = find_all(doc, cls="product")[0]
    price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
    path = build_tags_path(doc, price_el)
    return store, path, reference, [fetch(n) for n in range(1, PAGES_PER_JOB)]


@pytest.fixture(scope="module")
def jobs():
    return [_job(seed) for seed in range(N_JOBS)]


# ---------------------------------------------------------------------------
# (a) extraction over whole families


class TestFamilies:
    def test_the_families_are_what_the_suite_says_they_are(self, jobs):
        """Every notation, the banner-price decoy, strips of several
        lengths, no page equal to its reference — or the rest proves
        less than it claims."""
        assert {store.price_style for store, *_ in jobs} == set(PRICE_STYLES)
        pages = [page for _, _, _, family in jobs for page in family]
        assert any("Deal of the hour" in page for page in pages)
        assert any("Deal of the hour" not in page for page in pages)
        strips = {page.count('<div class="item">') for page in pages}
        assert len(strips) >= 3
        for store, _, reference, family in jobs:
            assert reference not in family
            # several price-looking elements on every page
            assert reference.count(f'class="{store.price_class}"') >= 3
        skeletons = [
            len({_skeleton(page) for page in [reference] + family})
            for _, _, reference, family in jobs
        ]
        assert max(skeletons) > 1  # a family is not one skeleton...
        assert sum(skeletons) < len(pages) / 3  # ...but far fewer than its pages

    def test_every_page_equals_the_oracle_and_scans_once_per_skeleton(self, jobs):
        for store, path, reference, family in jobs:
            pages = [reference] + family
            expected = [tagspath_legacy.extract_price_text(p, path) for p in pages]
            assert all(expected), store.domain  # the oracle finds every price
            clear_extraction_memo()
            EXTRACTION_STATS.reset()
            assert [extract_price_text(p, path) for p in pages] == expected  # cold
            assert EXTRACTION_STATS.pages_parsed == len({_skeleton(p) for p in pages})
            assert EXTRACTION_STATS.memo_hits == len(pages) - EXTRACTION_STATS.pages_parsed
            assert [extract_price_text(p, path) for p in pages] == expected  # warm
            assert EXTRACTION_STATS.pages_parsed + EXTRACTION_STATS.memo_hits == 2 * len(pages)
            assert EXTRACTION_STATS.memo_hits >= len(pages)

    def test_a_plan_made_by_any_page_of_a_skeleton_serves_the_others(self, jobs):
        """Whichever page of a skeleton arrives first makes the plan."""
        for _, path, reference, family in jobs[::6]:
            pages = [reference] + family
            expected = {p: tagspath_legacy.extract_price_text(p, path) for p in pages}
            for order in (pages[::-1], sorted(pages)):
                clear_extraction_memo()
                assert {p: extract_price_text(p, path) for p in order} == expected


# ---------------------------------------------------------------------------
# (b) a hit cannot leak text or skip a check

_PATH = TagsPath(entries=("html", "body", "div.product"), target="span.price")


def _page(price, before="", after="\n", banner="ad-1234"):
    return (
        f"{before}<!DOCTYPE html>\n<html><body>"
        f'<div class="banner"><span class="price">{banner}</span></div>'
        f'<div class="product"><span class="price">{price}</span></div>'
        f"</body></html>{after}"
    )


class TestHits:
    def setup_method(self):
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        assert extract_price_text(_page("EUR 10"), _PATH) == "EUR 10"

    def _hit(self, page):
        hits = EXTRACTION_STATS.memo_hits
        out = extract_price_text(page, _PATH)
        assert EXTRACTION_STATS.memo_hits == hits + 1
        assert EXTRACTION_STATS.pages_parsed == 1
        assert out == tagspath_legacy.extract_price_text(page, _PATH)
        return out

    def test_each_page_gets_its_own_text(self):
        assert self._hit(_page("USD 12.50", banner="$1")) == "USD 12.50"
        assert self._hit(_page("\n  1.234,56 €\n")) == "1.234,56 €"
        assert self._hit(_page("EUR\n\n 10")) == "EUR 10"
        assert self._hit(_page("a b")) == "a b"  # "\n" is the only line end
        assert self._hit(_page(" \n ")) is None  # an empty price element

    def test_text_before_the_root_is_still_refused(self):
        assert self._hit(_page("EUR 10", before="x")) is None
        assert self._hit(_page("EUR 10", before=" \n ")) == "EUR 10"

    def test_text_after_the_root_is_still_refused(self):
        assert self._hit(_page("EUR 10", after="\ntrailing")) is None
        assert self._hit(_page("EUR 10", after="")) == "EUR 10"

    def test_a_stray_angle_bracket_after_the_root_is_still_dropped(self):
        assert self._hit(_page("EUR 10", after=" < ")) == "EUR 10"
        assert self._hit(_page("EUR 10", after=" << \n<")) == "EUR 10"
        assert self._hit(_page("EUR 10", after=" < x")) is None

    def test_text_between_doctype_and_root_is_still_refused(self):
        page = _page("EUR 10").replace("<!DOCTYPE html>\n", "<!DOCTYPE html>oops")
        assert self._hit(page) is None

    @pytest.mark.parametrize("winner", [
        '<img class="price">', '<span class="price"/>', '<span class="price" />',
    ])
    def test_a_winner_that_cannot_hold_text_is_none_hit_or_miss(self, winner):
        page = f'<html><body><div class="product">{winner}EUR 10</div></body></html>'
        path = TagsPath(entries=_PATH.entries, target=winner.split()[0][1:] + ".price")
        for _ in range(2):
            assert extract_price_text(page, path) is None
            assert tagspath_legacy.extract_price_text(page, path) is None

    @given(
        holes=st.lists(
            st.text(alphabet="ab9$€ \n\t\r >", max_size=12), min_size=5, max_size=5
        ),
        tail=st.sampled_from(["", "\n", " < ", "<", "x", " <\n x", ">"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_text_in_a_fixed_skeleton_equals_the_oracle(self, holes, tail):
        before, banner, price, between, after = holes
        page = (
            f"{before}<html><body>"
            f'<div class="banner"><span class="price">{banner}</span></div>{between}'
            f'<div class="product"><span class="price">{price}</span></div>'
            f"</body></html>{after}{tail}"
        )
        expected = tagspath_legacy.extract_price_text(page, _PATH)
        assert extract_price_text(page, _PATH) == expected  # the first example misses
        assert extract_price_text(page, _PATH) == expected
        assert len(_plans) == 2  # this skeleton and setup_method's


# ---------------------------------------------------------------------------
# (c) hostile pages and the memo's bounds


class TestMemoBounds:
    def test_distinct_skeletons_a_huge_skeleton_and_a_huge_text(self):
        clear_extraction_memo()
        for n in range(10_000):
            extract_price_text(f'<html><i class="{n}">x</i></html>', _PATH)
        assert len(_plans) == EXTRACTION_MEMO_MAX
        too_long = "<html>" + "<br>" * (EXTRACTION_MEMO_PAGE_MAX // 4) + "</html>"
        assert extract_price_text(too_long, _PATH) is None
        assert all(key[0] != _skeleton(too_long) for key in _plans)
        megabyte = _page("9" * 1_000_000)
        assert extract_price_text(megabyte, _PATH) == "9" * 1_000_000
        assert (_skeleton(megabyte), _PATH) in _plans
        assert len(_plans) == EXTRACTION_MEMO_MAX
        # keys hold markup only, values four integers
        assert all(len(key[0]) <= EXTRACTION_MEMO_PAGE_MAX for key in _plans)
        assert sum(len(key[0]) for key in _plans) < 64 * EXTRACTION_MEMO_MAX
        assert all(plan is None or len(plan) == 4 for plan in _plans.values())
        clear_extraction_memo()
        assert not _plans


# ---------------------------------------------------------------------------
# (d) DiffStorage over the same families


def _store_job(store, oracle, job_id, reference, family):
    """Store one family in both; the sizes each reported, page by page."""
    store.store_reference(job_id, reference)
    oracle.store_reference(job_id, reference)
    return (
        [store.store_response(job_id, f"proxy-{n}", page) for n, page in enumerate(family)],
        [oracle.store_response(job_id, f"proxy-{n}", page) for n, page in enumerate(family)],
    )


class TestDiffStorageFamilies:
    def test_every_page_restores_exactly_at_no_more_than_the_line_diff(self, jobs):
        store, oracle = DiffStorage(), LineDiffStorage()
        total = oracle_total = 0
        for index, (_, _, reference, family) in enumerate(jobs):
            sizes, lines = _store_job(store, oracle, f"job-{index}", reference, family)
            # A strip whose items the reference has further down is the
            # one page the line diff can win: tags alone cannot tell one
            # item from the next.  Over a family it never does.
            assert sum(sizes) <= sum(lines), index
            assert all(size < len(page) / 2 for size, page in zip(sizes, family))
            total += sum(sizes)
            oracle_total += sum(lines)
        assert total < 0.6 * oracle_total
        assert store.stored_chars() == total + sum(len(ref) for _, _, ref, _ in jobs)
        # read back only after every job was stored: nothing a restore
        # needs may live in the open job's state
        for index, (_, _, reference, family) in enumerate(jobs):
            assert reference_of(store, f"job-{index}") == reference
            for n, page in enumerate(family):
                assert store.restore(f"job-{index}", f"proxy-{n}") == page
        assert len(diffs_of(store)) == N_JOBS * (PAGES_PER_JOB - 1)
        assert store.naive_chars_seen == sum(
            len(page) for _, _, reference, family in jobs for page in [reference] + family
        )

    def test_interleaved_jobs_and_a_page_stored_twice(self, jobs):
        (_, _, ref_a, family_a), (_, _, ref_b, family_b) = jobs[0], jobs[1]
        store = DiffStorage()
        store.store_reference("a", ref_a)
        store.store_reference("b", ref_b)
        sizes = {}
        for n, (page_a, page_b) in enumerate(zip(family_a, family_b)):
            sizes["a", n] = store.store_response("a", f"p{n}", page_a)
            sizes["b", n] = store.store_response("b", f"p{n}", page_b)
        # losing the open job costs a re-alignment, not a different diff
        alone = DiffStorage()
        alone.store_reference("a", ref_a)
        assert [alone.store_response("a", f"p{n}", page) for n, page in enumerate(family_a)] == [
            sizes["a", n] for n in range(len(family_a))
        ]
        # the same (job, proxy) again, with another page: the last one counts
        before = store.stored_chars()
        store.store_response("a", "p0", family_a[3])
        assert len(diffs_of(store)) == 2 * len(family_a)
        assert store.stored_chars() == before - sizes["a", 0] + sizes["a", 3]
        assert store.restore("a", "p0") == family_a[3]
        for n, (page_a, page_b) in enumerate(zip(family_a, family_b)):
            if n:
                assert store.restore("a", f"p{n}") == page_a
            assert store.restore("b", f"p{n}") == page_b

    def test_only_the_text_that_differs_is_stored(self):
        store = DiffStorage()
        store.store_reference("j", _page("EUR 10"))
        assert store.store_response("j", "same", _page("EUR 10")) == 0
        assert store.store_response("j", "price", _page("USD 12.50")) == len("USD 12.50")
        assert store.store_response("j", "both", _page("$9", banner="ad-9")) == len("$9ad-9")
        extra = _page("EUR 10").replace("</body>", '<div class="item">new</div></body>')
        assert store.store_response("j", "tags", extra) == len('<div class="item">new</div>')
        fewer = _page("EUR 10").replace('<div class="banner">', "").replace("</div>", "", 1)
        assert store.store_response("j", "fewer", fewer) == 0
        for proxy, page in (("same", _page("EUR 10")), ("price", _page("USD 12.50")),
                            ("both", _page("$9", banner="ad-9")), ("tags", extra),
                            ("fewer", fewer)):
            assert store.restore("j", proxy) == page

    @given(
        ref=st.lists(st.sampled_from(["a", "b", "price 10", "", " x"]), max_size=12),
        new=st.lists(st.sampled_from(["a", "b", "price 12", "", "y "]), max_size=12),
        end=st.sampled_from(["\n", "\r\n", "\r", " ", "\x0c"]),
        final=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_page_without_tags_costs_exactly_its_line_diff(self, ref, new, end, final):
        ref_page = end.join(ref) + (end if final else "")
        new_page = end.join(new)
        store, oracle = DiffStorage(), LineDiffStorage()
        store.store_reference("j", ref_page)
        oracle.store_reference("j", ref_page)
        assert store.store_response("j", "p", new_page) == (
            oracle.store_response("j", "p", new_page))
        assert store.restore("j", "p") == new_page == oracle.restore("j", "p")

    @given(
        ref=st.text(alphabet='<>/ab="\n\r  ', max_size=60),
        new=st.text(alphabet='<>/ab="\n\r  ', max_size=60),
        again=st.text(alphabet='<>/ab="\n\r  ', max_size=60),
    )
    @settings(max_examples=400, deadline=None)
    def test_restore_is_exact_for_any_strings(self, ref, new, again):
        """Tags, stray ``<`` / ``>``, no newline at EOF, U+2028."""
        store = DiffStorage()
        store.store_reference("j", ref)
        assert 0 <= store.store_response("j", "p", new) <= len(new)
        store.store_response("j", "q", again)
        store.store_response("j", "r", new)
        assert store.restore("j", "p") == new == store.restore("j", "r")
        assert store.restore("j", "q") == again

    @given(
        pieces=st.lists(
            st.sampled_from(["<div>", "</div>", '<span class="price">', "</span>",
                             "<br>", "text", "$9.99", "\n", "  ", "a\nb\n", "<", ">"]),
            max_size=25,
        ),
        edits=st.lists(st.tuples(st.integers(0, 24), st.sampled_from(
            ["", "<p>", "</div>", "other", "a\nc\n", "\n"])), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_restore_is_exact_for_edited_tag_soup(self, pieces, edits):
        ref = "".join(pieces)
        edited = list(pieces)
        for position, piece in edits:
            if position < len(edited):
                edited[position] = piece
        new = "".join(edited)
        store = DiffStorage()
        store.store_reference("j", ref)
        assert store.store_response("j", "p", new) <= len(new)
        assert store.restore("j", "p") == new


# ---------------------------------------------------------------------------
# the alignment is bounded


def _rows(n, marker):
    """A category page in the shape that made the line matcher quadratic:
    ``n`` equal structural lines between a first and a last line that
    differ from the reference's."""
    return f"{marker}\n" + "<tr><td>row</td></tr>\n" * n + f"{marker}\n"


class TestBoundedAlignment:
    def test_two_thousand_repeated_lines_store_quickly_and_restore(self):
        ref, new = _rows(2001, "<p>ref</p>"), _rows(2000, "<p>new</p>")
        store = DiffStorage()
        store.store_reference("j", ref)
        started = time.perf_counter()
        size = store.store_response("j", "p", new)
        elapsed = time.perf_counter() - started
        assert store.restore("j", "p") == new
        assert size == len("newnew")
        assert elapsed < 0.2

    @pytest.mark.parametrize("shape", [
        lambda n, marker: f"{marker}\n" + "row\n" * n + f"{marker}\n",  # one text slot
        lambda n, marker: f"<{marker}>" + "<i><b>" * n + f"</{marker}>",  # tags only
    ])
    def test_above_the_cap_the_middle_is_stored_verbatim(self, shape):
        ref, new = shape(2001, "ref"), shape(2000, "new")
        store = DiffStorage()
        store.store_reference("j", ref)
        started = time.perf_counter()
        size = store.store_response("j", "p", new)
        elapsed = time.perf_counter() - started
        assert store.restore("j", "p") == new
        assert size == len(new)  # nothing aligned: head and tail differ
        assert elapsed < 0.2

    def test_below_the_cap_sizes_are_the_line_diffs(self):
        side = int(diffstorage.ALIGN_CELLS_MAX ** 0.5) - 3
        ref = "ref\n" + "row\n" * (side + 1) + "ref\n"
        new = "new\n" + "row\n" * side + "new\n"
        cells = ref.count("\n") * new.count("\n")
        assert 0.98 * diffstorage.ALIGN_CELLS_MAX < cells <= diffstorage.ALIGN_CELLS_MAX
        store, oracle = DiffStorage(), LineDiffStorage()
        store.store_reference("j", ref)
        oracle.store_reference("j", ref)
        assert store.store_response("j", "p", new) == len("new\nnew\n") == (
            oracle.store_response("j", "p", new))
        assert store.restore("j", "p") == new
