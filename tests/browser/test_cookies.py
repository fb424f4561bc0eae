"""Tests for the cookie jar and history services."""

from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

import pytest

from repro.browser.cookies import CookieJar
from repro.browser.history import BrowserHistory, HistoryEntry


class TestCookieJar:
    def test_set_get(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        assert jar.get("a.com") == {"sid": "1"}

    def test_get_returns_copy(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        jar.get("a.com")["sid"] = "tampered"
        assert jar.value("a.com", "sid") == "1"

    def test_delete_name(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        jar.set("a.com", "pref", "x")
        jar.delete("a.com", "sid")
        assert jar.get("a.com") == {"pref": "x"}

    def test_delete_domain(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        jar.delete("a.com")
        assert "a.com" not in jar

    def test_delete_last_cookie_removes_domain(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        jar.delete("a.com", "sid")
        assert "a.com" not in jar

    def test_len_counts_cookies(self):
        jar = CookieJar()
        jar.set("a.com", "x", "1")
        jar.set("a.com", "y", "2")
        jar.set("b.com", "z", "3")
        assert len(jar) == 3

    def test_snapshot_restore_roundtrip(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        snap = jar.snapshot()
        jar.set("b.com", "x", "2")
        jar.restore(snap)
        assert jar.domains() == ["a.com"]

    def test_snapshot_is_deep(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        snap = jar.snapshot()
        jar.set("a.com", "sid", "2")
        assert snap["a.com"]["sid"] == "1"

    def test_equality(self):
        a, b = CookieJar(), CookieJar()
        a.set("d.com", "k", "v")
        b.set("d.com", "k", "v")
        assert a == b
        b.set("d.com", "k2", "v2")
        assert a != b

    def test_copy_independent(self):
        jar = CookieJar()
        jar.set("a.com", "sid", "1")
        dup = jar.copy()
        dup.set("a.com", "sid", "2")
        assert jar.value("a.com", "sid") == "1"

    @pytest.mark.parametrize("derive", [
        lambda jar: jar.snapshot(),
        lambda jar: jar.copy()._jar,
        lambda jar: CookieJar(jar.snapshot())._jar,
    ], ids=["snapshot", "copy", "constructor"])
    def test_snapshot_and_jar_never_alias(self, derive):
        """Mutating either side, at either level, leaves the other unchanged."""
        contents = {"a.com": {"sid": "1", "pref": "x"}, "b.com": {"k": "v"}}
        jar = CookieJar(contents)
        snap = derive(jar)
        assert snap == contents
        # the jar changes: cookie level, then domain level
        jar.set("a.com", "sid", "2")
        jar.delete("a.com", "pref")
        jar.delete("b.com")
        jar.set("new.com", "n", "1")
        assert snap == contents
        # the snapshot changes: cookie level, then domain level
        jar.restore(contents)
        snap = derive(jar)
        snap["a.com"]["sid"] = "tampered"
        del snap["a.com"]["pref"]
        del snap["b.com"]
        snap["new.com"] = {"n": "1"}
        assert jar.snapshot() == contents

    def test_restore_does_not_adopt_the_callers_dicts(self):
        state = {"a.com": {"sid": "1"}}
        jar = CookieJar()
        jar.restore(state)
        jar.set("a.com", "sid", "2")
        jar.set("b.com", "k", "v")
        assert state == {"a.com": {"sid": "1"}}
        state["a.com"]["sid"] = "tampered"
        assert jar.value("a.com", "sid") == "2"

    @given(
        st.dictionaries(
            st.sampled_from(["a.com", "b.com", "c.com"]),
            st.dictionaries(st.sampled_from(["k1", "k2"]), st.text(max_size=5),
                            min_size=1),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_restore_always_recovers_snapshot(self, contents):
        jar = CookieJar(contents)
        snap = jar.snapshot()
        jar.set("mutant.com", "zz", "q")
        jar.delete("a.com")
        jar.restore(snap)
        assert jar.snapshot() == snap


class TestHistory:
    def test_domain_counts(self):
        history = BrowserHistory()
        history.add(0.0, "http://a.com/x")
        history.add(1.0, "http://a.com/y")
        history.add(2.0, "http://b.com/z")
        counts = history.domain_counts()
        assert counts == {"a.com": 2, "b.com": 1}

    def test_since_filter(self):
        history = BrowserHistory()
        history.add(0.0, "http://a.com/x")
        history.add(10.0, "http://a.com/y")
        assert history.domain_counts(since=5.0) == {"a.com": 1}

    def test_product_visits(self):
        history = BrowserHistory()
        history.add(0.0, "http://shop.com/product/p-1")
        history.add(1.0, "http://shop.com/about")
        assert history.product_visits_to("shop.com") == 1
        assert history.visits_to("shop.com") == 2

    def test_entry_is_a_frozen_time_url_value(self):
        """The domain is parsed once at creation and is not part of the value."""
        entry = HistoryEntry(time=1.0, url="https://shop.com/product/p-1")
        assert entry.domain == "shop.com"
        assert entry == HistoryEntry(1.0, "https://shop.com/product/p-1")
        assert hash(entry) == hash(HistoryEntry(1.0, "https://shop.com/product/p-1"))
        assert entry != HistoryEntry(1.0, "https://shop.com/product/p-2")
        assert repr(entry) == (
            "HistoryEntry(time=1.0, url='https://shop.com/product/p-1')"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.url = "http://other.com/"
        with pytest.raises(TypeError):
            HistoryEntry(1.0, "http://shop.com/", "shop.com")

    def test_snapshot_restore(self):
        history = BrowserHistory()
        history.add(0.0, "http://a.com/x")
        snap = history.snapshot()
        history.add(1.0, "http://b.com/y")
        history.restore(snap)
        assert len(history) == 1
