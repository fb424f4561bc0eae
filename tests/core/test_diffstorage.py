"""Tests for DiffStorage."""

import gc
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.diffstorage import DiffStorage
from repro.web.html import clear_token_memo

from tests.core.stored_pages import aliases_of, diffs_of, live_jobs, reference_of, stored_jobs
from tests.core.test_page_family import _job


PAGE_A = "\n".join(f"line {i}" for i in range(50))
PAGE_B = "\n".join(f"line {i}" if i % 10 else f"AD {i}" for i in range(50))


class TestStoreRestore:
    def test_reference_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        assert reference_of(store, "j1") == PAGE_A

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
        assert len(diffs_of(store)) == 2


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

#: every job sealed, its reference's share included: 112 B per page on
#: CPython 3.10.13, 3.11.7 and 3.12.1 (164-196 B with the last job
#: open; ~400 B before jobs were sealed, references not counted)
RETAINED_PER_SEALED_PAGE_MAX = 150


def retained_bytes_per_page(n_jobs=24, seal=False):
    """Bytes a DiffStorage still holds per stored page once ``n_jobs``
    seeded page families are stored (the pages themselves not counted:
    they exist before the store does; a sealed job holds a compressed
    copy of its reference, which is counted).  ``seal`` stores one more
    job's reference, so that the last family is sealed too."""
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
        if seal:
            store.store_reference("after", "")
        clear_token_memo()  # the page-cut memo is not the store's
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return retained / sum(len(pages) for _, _, pages in families)


def test_a_stored_page_costs_one_record():
    assert retained_bytes_per_page() < RETAINED_PER_PAGE_MAX


def test_a_sealed_job_costs_its_compressed_share():
    assert retained_bytes_per_page(seal=True) < RETAINED_PER_SEALED_PAGE_MAX


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
    store.store_reference("other", _shop("$1"))  # the open job moves on: j is sealed
    assert live_jobs(store) == ["other"]
    for proxy, page in pages.items():
        assert store.restore("j", proxy) == page, proxy
    for proxy, page in pages.items():  # aliases in a job sealed behind another
        store.store_alias("other", proxy, page, ("j", proxy))
    store.store_reference("last", _shop("$2"))
    del store._sealed["j"]  # a sealed job restores on its own
    for proxy, page in pages.items():
        assert store.restore("other", proxy) == page, proxy


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_page_without_tags_restores_exactly(text):
    store = DiffStorage()
    store.store_reference("j", "price 10\nshipping 2\ntotal 12")
    pages = {
        "one line": f"price {text}",
        "lines": f"price 10\nshipping {text}\ntotal 12",
        "tagged": f"<p>{text}</p>",
    }
    for proxy, page in pages.items():
        store.store_response("j", proxy, page)
        assert store.restore("j", proxy) == page, proxy
    store.store_reference("other", "total 1")
    for proxy, page in pages.items():  # from the job sealed behind "other"
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
    """Slots of any characters, line boundaries and surrogates included,
    in the open job and in the job sealed behind the next one."""
    store = DiffStorage()
    store.store_reference("j", "<b>".join(ref))
    store.store_response("j", "p", "<b>".join(page))
    assert store.restore("j", "p") == "<b>".join(page)
    store.store_reference("next", "<b>".join(page))
    assert reference_of(store, "j") == "<b>".join(ref)
    assert store.restore("j", "p") == "<b>".join(page)


# ---------------------------------------------------------------------------
# open and sealed jobs


@pytest.mark.parametrize("sealed", [False, True], ids=["open", "sealed"])
def test_a_reference_stored_again(sealed):
    """The job's own page again is a no-op but for ``naive_chars_seen``;
    another page raises and stores nothing."""
    store = DiffStorage()
    store.store_reference("j", _shop("EUR 10"))
    store.store_response("j", "p", _shop("EUR 12"))
    if sealed:
        store.store_reference("other", _shop("$1"))
    stored, naive = store.stored_chars(), store.naive_chars_seen
    with pytest.raises(ValueError):
        store.store_reference("j", _shop("EUR 10", ad="ad-2"))
    assert (store.stored_chars(), store.naive_chars_seen) == (stored, naive)
    assert live_jobs(store)[0] == ("other" if sealed else "j")
    assert reference_of(store, "j") == _shop("EUR 10")
    assert store.restore("j", "p") == _shop("EUR 12")
    store.store_reference("j", _shop("EUR 10"))
    assert store.stored_chars() == stored
    assert store.naive_chars_seen == naive + len(_shop("EUR 10"))
    assert live_jobs(store)[0] == "j"
    assert store.restore("j", "p") == _shop("EUR 12")


def test_a_write_to_a_sealed_job_reopens_it():
    store = DiffStorage()
    store.store_reference("a", _shop("EUR 10"))
    store.store_response("a", "p0", _shop("EUR 11"))
    store.store_reference("b", _shop("$1"))
    assert live_jobs(store) == ["b"]
    store.store_response("a", "p1", _shop("EUR 12"))  # a failover re-run
    assert live_jobs(store) == ["a"]
    assert set(stored_jobs(store)) == {"a", "b"}
    store.store_alias("b", "p0", _shop("EUR 11"), ("a", "p0"))
    assert live_jobs(store) == ["b"]
    for (job, proxy), page in {
        ("a", "p0"): _shop("EUR 11"), ("a", "p1"): _shop("EUR 12"), ("b", "p0"): _shop("EUR 11"),
    }.items():
        assert store.restore(job, proxy) == page


def test_a_wave_of_aliases_reads_its_sealed_target_once(monkeypatch):
    """Eight checks of one hot product: the first stores the pages, the
    other seven alias them, each opened behind the one before."""
    store = DiffStorage()
    pages = {f"ipc-{n}": _shop(f"EUR 1{n}", ad=f"ad-{n}") for n in range(6)}
    store.store_reference("job-0", _shop("EUR 10"))
    for proxy, page in pages.items():
        store.store_response("job-0", proxy, page)
    decompressed = []
    decompress = zlib.decompress
    monkeypatch.setattr(zlib, "decompress", lambda blob: decompressed.append(1) or decompress(blob))
    for n in range(1, 8):
        store.store_reference(f"job-{n}", _shop("EUR 10"))
        for proxy, page in pages.items():
            store.store_alias(f"job-{n}", proxy, page, ("job-0", proxy))
        assert live_jobs(store) == [f"job-{n}", "job-0"]
    assert len(decompressed) == 1
    monkeypatch.undo()
    for n in range(8):
        for proxy, page in pages.items():
            assert store.restore(f"job-{n}", proxy) == page


# ---------------------------------------------------------------------------
# the running total

_JOBS = ("j1", "j2", "j3")  # j3's reference is stored by a step, if at all
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
    # the job's own page (a re-run, or a new job: the open job is sealed)
    # or another page
    st.tuples(st.just("reference"), st.sampled_from(_JOBS), st.booleans()),
)


def _reference(job):
    return _shop(f"ref {job}", ad=job)


@example(steps=[
    ("response", ("j1", "p0"), 0),  # j1 reopened, j2 sealed
    ("reference", "j2", True),  # a re-run: j1 sealed
    ("alias", ("j2", "p1"), ("j1", "p0")),  # a target in a sealed job
    ("alias", ("j2", "p2"), ("j2", "p1")),  # an alias of an alias
    ("reference", "j3", True),  # j2 sealed
    ("response", ("j1", "p0"), 1),  # the sealed target stored again
    ("alias", ("j3", "p0"), ("j2", "p2")),
    ("reference", "j1", False),  # another page: refused
    ("alias", ("j1", "p1"), ("j1", "p0")),
    ("alias", ("j1", "p0"), ("j1", "p1")),  # its own diff, through an alias
    ("alias", ("j3", "p1"), ("j9", "p0")),
    ("response", ("j3", "p0"), 2),  # an alias overwritten by a diff
    ("response", ("j3", "p1"), 2),
    ("alias", ("j3", "p0"), ("j3", "p1")),  # an equal page stored apart
])
@given(steps=st.lists(_STEP, max_size=25))
@settings(max_examples=100, deadline=None)
def test_accounting_is_exact_after_every_step(steps):
    """Re-stores, aliases, overwritten alias targets, and jobs sealed and
    reopened between them: the total is the references plus the last
    size ``store_response`` returned for each name that is a diff, every
    name restores, and only the job written to last and the read
    cache's are held unsealed."""
    store = DiffStorage()
    references = {job: _reference(job) for job in _JOBS[:2]}
    for job, html in references.items():
        store.store_reference(job, html)
    naive = sum(map(len, references.values()))
    last = _JOBS[1]  # the job written to last
    pages, sizes, record_of = {}, {}, {}  # record_of: name -> id of its diff
    for step, (kind, name, arg) in enumerate(steps):
        if kind == "reference":
            html = _reference(name) if arg else _shop("another page")
            if references.setdefault(name, html) != html:
                with pytest.raises(ValueError):
                    store.store_reference(name, html)
            else:
                store.store_reference(name, html)
                naive += len(html)
                last = name
        elif name[0] not in references or kind == "alias" and arg not in pages:
            with pytest.raises(KeyError):
                if kind == "response":
                    store.store_response(*name, _PAGES[arg])
                else:
                    store.store_alias(*name, "", arg)
        elif kind == "response":
            pages[name] = _PAGES[arg]
            sizes[name] = store.store_response(*name, _PAGES[arg])
            record_of[name] = step
            naive += len(_PAGES[arg])
            last = name[0]
        else:
            store.store_alias(*name, pages[arg], arg)
            naive += len(pages[arg])
            last = name[0]
            if record_of.get(name) != record_of[arg]:
                sizes.pop(name, None)
                pages[name] = pages[arg]
                record_of[name] = record_of[arg]
        assert store.stored_chars() == sum(map(len, references.values())) + sum(sizes.values())
        assert store.naive_chars_seen == naive
        assert len(diffs_of(store)) == len(sizes)
        assert len(aliases_of(store)) == len(pages) - len(sizes)
        assert set(stored_jobs(store)) == set(references)
        assert live_jobs(store)[0] == last
        for stored, html in pages.items():
            assert store.restore(*stored) == html
            assert len(live_jobs(store)) <= 2
