"""Tests for DiffStorage."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffstorage import DiffStorage
from repro.web.html import clear_token_memo

from tests.core.test_page_family import _job


PAGE_A = "\n".join(f"line {i}" for i in range(50))
PAGE_B = "\n".join(f"line {i}" if i % 10 else f"AD {i}" for i in range(50))


class TestStoreRestore:
    def test_reference_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        assert store._reference.get("j1") == PAGE_A

    def test_diff_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        store.store_response("j1", "ipc-0", PAGE_B)
        assert store.restore("j1", "ipc-0") == PAGE_B

    def test_identical_page_costs_nothing(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        size = store.store_response("j1", "ipc-0", PAGE_A)
        assert size == 0

    def test_missing_reference(self):
        store = DiffStorage()
        with pytest.raises(KeyError):
            store.store_response("jX", "ipc-0", PAGE_B)
        with pytest.raises(KeyError):
            store.restore("jX", "ipc-0")

    def test_missing_diff(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        with pytest.raises(KeyError):
            store.restore("j1", "nope")


class TestAccounting:
    def test_savings_vs_naive(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        pages = {}
        for i in range(5):
            proxy = f"ipc-{i}"
            store.store_response("j1", proxy, PAGE_B)
            pages[("j1", proxy)] = PAGE_B
        naive = sum(map(len, pages.values())) + len(PAGE_A)
        assert store.stored_chars() < naive

    def test_diff_count(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        store.store_response("j1", "a", PAGE_B)
        store.store_response("j1", "b", PAGE_B)
        assert len(store._diffs) == 2


@pytest.mark.parametrize("ref_lines, new_lines, stored", [
    (["h", "a", "t"], ["h", "b", "t"], "b\n"),       # shared head and tail
    (["a", "a"], ["a", "a", "a"], "a\n"),             # head may not overlap tail
    (["a", "a", "a"], ["a", "a"], ""),                # ... in either direction
    (["h", "t"], ["h", "x", "y", "t"], "x\ny\n"),     # empty reference middle
    (["a", "b"], ["c", "d"], "c\nd"),                 # nothing shared
])
def test_common_head_and_tail_are_not_stored(ref_lines, new_lines, stored):
    """Only the differing middle is diffed and paid for; the outer
    ``equal`` runs are re-based so that restore() stays exact."""
    store = DiffStorage()
    store.store_reference("j", "\n".join(ref_lines))
    assert store.store_response("j", "p", "\n".join(new_lines)) == len(stored)
    assert store.restore("j", "p") == "\n".join(new_lines)


@given(
    base=st.lists(st.sampled_from(["x", "y", "z", "price 10", "ad"]),
                  min_size=1, max_size=30),
    variant=st.lists(st.sampled_from(["x", "y", "z", "price 12", "ad2"]),
                     min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_restore_is_exact_property(base, variant):
    """restore(store(page)) == page for arbitrary line content."""
    store = DiffStorage()
    ref = "\n".join(base)
    new = "\n".join(variant)
    store.store_reference("j", ref)
    store.store_response("j", "p", new)
    assert store.restore("j", "p") == new


# ---------------------------------------------------------------------------
# what a stored page costs in memory

#: a page kept as a tree of tuples and strings retained ~1.2 KB here,
#: one ``bytes`` record ~0.4 KB
RETAINED_PER_PAGE_MAX = 800


def retained_bytes_per_page(n_jobs=24):
    """Bytes a DiffStorage still holds per stored page once ``n_jobs``
    seeded page families are stored (the pages themselves not counted:
    they exist before the store does)."""
    families = [
        (f"job-{seed}", reference, [(f"proxy-{n}", page) for n, page in enumerate(family)])
        for seed, (_, _, reference, family) in enumerate(map(_job, range(n_jobs)))
    ]
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        store = DiffStorage()
        for job_id, reference, pages in families:
            store.store_reference(job_id, reference)
            for proxy_id, page in pages:
                store.store_response(job_id, proxy_id, page)
        clear_token_memo()  # the page-cut memo is not the store's
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return retained / len(store._diffs)


def test_a_stored_page_costs_one_record():
    assert retained_bytes_per_page() < RETAINED_PER_PAGE_MAX


# ---------------------------------------------------------------------------
# pages from untrusted peers

HOSTILE = {
    "lone surrogate": "\ud800",
    "NUL": "\x00",
    "CRLF": "a\r\nb",
    "U+2028": "a\u2028b",
    "U+0085": "a\x85b",
    "non-BMP": "\U0001f4b0 12",
}


def _shop(price, ad="ad-1", tail="</body></html>"):
    return f"<html><body><div>{ad}</div><span class='price'>{price}</span>{tail}"


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_text_in_a_differing_slot_restores_exactly(text):
    store = DiffStorage()
    store.store_reference("j", _shop("EUR 10\nline two\nline three"))
    pages = {
        "slot": _shop(f"EUR {text} 10"),
        "lines": _shop(f"EUR 10\nline {text} two\nline three"),
        "another slot": _shop("EUR 10\nline two\nline three", ad=f"ad{text}"),
        "gap": _shop("EUR 10", tail=f"<i>{text}</i></body></html>"),
    }
    for proxy, page in pages.items():
        store.store_response("j", proxy, page)
    store.store_reference("other", _shop("$1"))  # the open job moves on
    for proxy, page in pages.items():
        assert store.restore("j", proxy) == page, proxy


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_page_without_tags_restores_exactly(text):
    store = DiffStorage()
    store.store_reference("j", "price 10\nshipping 2\ntotal 12")
    for proxy, page in {
        "one line": f"price {text}",
        "lines": f"price 10\nshipping {text}\ntotal 12",
        "tagged": f"<p>{text}</p>",
    }.items():
        store.store_response("j", proxy, page)
        assert store.restore("j", proxy) == page, proxy


#: any character, with every ``str.splitlines`` boundary, NUL and lone
#: surrogates drawn often
_ANY_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\x00\ud800\udfff"),
    ),
    max_size=6,
)


@given(
    ref=st.lists(_ANY_TEXT, min_size=1, max_size=5),
    page=st.lists(_ANY_TEXT, min_size=1, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_any_text_between_tags_restores_exactly(ref, page):
    """Slots of any characters, line boundaries and surrogates included."""
    store = DiffStorage()
    store.store_reference("j", "<b>".join(ref))
    store.store_response("j", "p", "<b>".join(page))
    assert store.restore("j", "p") == "<b>".join(page)


# ---------------------------------------------------------------------------
# the running total

_JOBS = ("j1", "j2")
_PROXIES = ("p0", "p1", "p2")
_PAGES = (
    _shop("EUR 10"),
    _shop("$12", ad="ad-2"),
    _shop("EUR 10\nper unit", tail="<p>promo</p></body></html>"),
    "no tags at all\n",
    _shop("EUR 11"),
)
_NAME = st.tuples(st.sampled_from(_JOBS), st.sampled_from(_PROXIES))
_STEP = st.one_of(
    st.tuples(st.just("response"), _NAME, st.sampled_from(range(len(_PAGES)))),
    st.tuples(st.just("alias"), _NAME, _NAME),
)


@given(steps=st.lists(_STEP, max_size=25))
@settings(max_examples=100, deadline=None)
def test_accounting_is_exact_after_every_step(steps):
    """Re-stores, aliases and overwritten alias targets: the total is
    the references plus the last size ``store_response`` returned for
    each name that is a diff, and every name restores."""
    store = DiffStorage()
    references = {job: _shop(f"ref {job}", ad=job) for job in _JOBS}
    for job, html in references.items():
        store.store_reference(job, html)
    pages, sizes, record_of = {}, {}, {}  # record_of: name -> id of its diff
    for step, (kind, name, arg) in enumerate(steps):
        if kind == "response":
            pages[name] = _PAGES[arg]
            sizes[name] = store.store_response(*name, _PAGES[arg])
            record_of[name] = step
        elif arg not in pages:
            with pytest.raises(KeyError):
                store.store_alias(*name, "", arg)
        else:
            store.store_alias(*name, pages[arg], arg)
            if record_of.get(name) != record_of[arg]:
                sizes.pop(name, None)
                pages[name] = pages[arg]
                record_of[name] = record_of[arg]
        assert store.stored_chars() == sum(map(len, references.values())) + sum(sizes.values())
        assert len(store._diffs) == len(sizes)
        assert len(store._aliases) == len(pages) - len(sizes)
        for stored, html in pages.items():
            assert store.restore(*stored) == html
