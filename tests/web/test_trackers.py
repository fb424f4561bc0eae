"""Tests for the tracker ecosystem."""

from repro.web.trackers import Tracker, TrackerEcosystem


class TestTracker:
    def test_first_observation_creates_cookie(self):
        tracker = Tracker("t.net")
        cookie = tracker.observe(None, "shop.com")
        assert cookie
        assert tracker.profile(cookie)["shop.com"] == 1

    def test_profile_accumulates(self):
        tracker = Tracker("t.net")
        cookie = tracker.observe(None, "shop.com")
        tracker.observe(cookie, "shop.com")
        tracker.observe(cookie, "news.com")
        profile = tracker.profile(cookie)
        assert profile["shop.com"] == 2
        assert profile["news.com"] == 1

    def test_distinct_cookies_distinct_profiles(self):
        tracker = Tracker("t.net")
        a = tracker.observe(None, "a.com")
        b = tracker.observe(None, "b.com")
        assert a != b
        assert tracker.profile(a) != tracker.profile(b)

    def test_profile_copy_is_safe(self):
        tracker = Tracker("t.net")
        cookie = tracker.observe(None, "a.com")
        profile = tracker.profile(cookie)
        profile["a.com"] = 999
        assert tracker.profile(cookie)["a.com"] == 1


class TestEcosystem:
    def test_default_population(self):
        eco = TrackerEcosystem()
        assert {"doubleclick.net", "fingerprint.net"} <= set(eco.domains())

    def test_merged_profile_across_trackers(self):
        eco = TrackerEcosystem()
        c1 = eco.get("doubleclick.net").observe(None, "shop.com")
        c2 = eco.get("criteo.com").observe(None, "shop.com")
        eco.get("criteo.com").observe(c2, "news.com")
        merged = eco.profile_across_trackers(
            {"doubleclick.net": c1, "criteo.com": c2}
        )
        assert merged["shop.com"] == 2
        assert merged["news.com"] == 1

    def test_merged_profile_ignores_unknown_trackers(self):
        eco = TrackerEcosystem()
        merged = eco.profile_across_trackers({"not-a-tracker.com": "x"})
        assert merged == {}

    def test_unknown_tracker_raises(self):
        eco = TrackerEcosystem()
        try:
            eco.get("nope.net")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")
