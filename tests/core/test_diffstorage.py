"""Tests for DiffStorage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffstorage import DiffStorage


PAGE_A = "\n".join(f"line {i}" for i in range(50))
PAGE_B = "\n".join(f"line {i}" if i % 10 else f"AD {i}" for i in range(50))


class TestStoreRestore:
    def test_reference_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        assert store.reference("j1") == PAGE_A

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

    def test_unknown_reference_returns_none(self):
        assert DiffStorage().reference("nope") is None


class TestAccounting:
    def test_savings_vs_naive(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        pages = {}
        for i in range(5):
            proxy = f"ipc-{i}"
            store.store_response("j1", proxy, PAGE_B)
            pages[("j1", proxy)] = PAGE_B
        naive = store.naive_chars(pages) + len(PAGE_A)
        assert store.stored_chars() < naive

    def test_diff_count(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        store.store_response("j1", "a", PAGE_B)
        store.store_response("j1", "b", PAGE_B)
        assert store.diff_count() == 2


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
