"""Tests for the fault-injection layer (repro.net.faults).

Property-style: fault plans are deterministic under a seed, rules only
fire on matching edges, and every injected fault is observable in the
event log and the metric that tallies it — no silent chaos.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import (
    CHAOS_PROFILES,
    CLEAN,
    ROLE_IPC,
    ROLE_PPC,
    ROLE_SERVER,
    BackoffPolicy,
    FaultPlan,
    FaultRule,
    PeerTimeout,
    chaos_plan,
)
from repro.obs import Telemetry
from repro.net.geo import Location
from repro.net.p2p import PeerOverlay


LOC = Location(ip="10.0.0.1", country="ES", region="Madrid", city="Madrid")


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="gremlin", probability=0.5)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=-0.1)

    def test_dst_glob_match(self):
        rule = FaultRule(kind="drop", probability=1.0, dst="ms-*")
        assert rule.matches("addon", "ms-0", role=None)
        assert not rule.matches("addon", "ipc-es-madrid", role=None)

    def test_dst_role_match(self):
        rule = FaultRule(kind="drop", probability=1.0, dst=ROLE_PPC)
        assert rule.matches("measurement", "xK9_opaque-id", role=ROLE_PPC)
        assert not rule.matches("measurement", "xK9_opaque-id", role=ROLE_IPC)

    def test_src_filter(self):
        rule = FaultRule(kind="drop", probability=1.0, dst="*", src="addon-*")
        assert rule.matches("addon-1", "ms-0", role=None)
        assert not rule.matches("ms-0", "ipc-1", role=None)


class TestFaultPlan:
    def test_no_rules_is_clean(self):
        plan = FaultPlan(seed=1)
        assert plan.decide("a", "b") is CLEAN
        assert plan.events == []

    def test_certain_rule_always_fires(self):
        plan = FaultPlan([FaultRule(kind="drop", probability=1.0)], seed=1)
        for _ in range(10):
            assert plan.decide("a", "b").kind == "drop"
        assert [e.kind for e in plan.events] == ["drop"] * 10

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule(kind="timeout", probability=1.0, dst="ms-*"),
                FaultRule(kind="drop", probability=1.0),
            ],
            seed=1,
        )
        assert plan.decide("a", "ms-0").kind == "timeout"
        assert plan.decide("a", "ipc-1").kind == "drop"

    def test_kinds_filter_restricts_decisions(self):
        plan = FaultPlan([FaultRule(kind="corrupt", probability=1.0)], seed=1)
        assert plan.decide("a", "b", kinds=("drop", "timeout")) is CLEAN
        assert plan.decide("a", "b").kind == "corrupt"

    def test_flap_never_returned_by_decide(self):
        plan = FaultPlan([FaultRule(kind="flap", probability=1.0)], seed=1)
        assert plan.decide("a", "b", kinds=("flap",)) is CLEAN

    def test_delay_carries_factor(self):
        plan = FaultPlan(
            [FaultRule(kind="delay", probability=1.0, delay_factor=7.0)], seed=1
        )
        decision = plan.decide("a", "b")
        assert decision.kind == "delay"
        assert decision.delay_factor == 7.0

    def test_events_record_every_fault(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            [FaultRule(kind="drop", probability=1.0)], seed=1, telemetry=telemetry
        )
        plan.decide("a", "b")
        plan.decide("a", "c")
        log = plan.event_log()
        assert [e.seq for e in log] == [0, 1]
        assert {e.dst for e in log} == {"b", "c"}
        injected = telemetry.registry.get("sheriff_faults_injected_total")
        assert injected.value(kind="drop") == len(log)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_decisions(self, seed):
        """Two plans with the same seed replay the same call sequence
        into identical event logs — the determinism contract."""
        rules = (
            FaultRule(kind="drop", probability=0.3, dst=ROLE_PPC),
            FaultRule(kind="timeout", probability=0.2, dst="ms-*"),
            FaultRule(kind="flap", probability=0.2, dst=ROLE_SERVER),
        )
        calls = [("m", f"peer-{i}", ROLE_PPC) for i in range(10)]
        calls += [("a", f"ms-{i % 3}", None) for i in range(10)]

        def run():
            plan = FaultPlan(rules, seed=seed)
            for src, dst, role in calls:
                plan.decide(src, dst, role=role)
                plan.host_down("ms-0", now=float(len(plan.events)),
                               role=ROLE_SERVER)
            return plan.event_log()

        assert run() == run()


class TestFlapWindows:
    def test_flap_window_opens_and_closes(self):
        plan = FaultPlan(
            [FaultRule(kind="flap", probability=1.0, dst=ROLE_SERVER,
                       flap_duration=50.0)],
            seed=1,
        )
        assert plan.host_down("ms-0", now=100.0, role=ROLE_SERVER)
        # inside the window: down without new RNG draws
        events_before = len(plan.events)
        assert plan.host_down("ms-0", now=120.0, role=ROLE_SERVER)
        assert len(plan.events) == events_before

    def test_host_recovers_after_window(self):
        plan = FaultPlan(
            [FaultRule(kind="flap", probability=1.0, dst="ms-0",
                       flap_duration=50.0)],
            seed=1,
        )
        assert plan.host_down("ms-0", now=0.0)
        # after the window a new draw happens; with p=1 it flaps again,
        # so check via a plan whose rule no longer matches
        assert "ms-0" in plan.flapping_hosts(now=10.0)
        assert plan.flapping_hosts(now=60.0) == []

    def test_non_matching_host_never_flaps(self):
        plan = FaultPlan(
            [FaultRule(kind="flap", probability=1.0, dst="ms-*")], seed=1
        )
        assert not plan.host_down("ipc-es", now=0.0, role=ROLE_IPC)


class TestCorruption:
    @given(text=st.text(min_size=1, max_size=200), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_corrupt_text_differs_and_marks(self, text, seed):
        plan = FaultPlan(seed=seed)
        mangled = plan.corrupt_text(text)
        assert mangled.endswith("truncated by fault injection")
        assert "\x00" in mangled

    def test_corrupt_empty_text(self):
        assert FaultPlan(seed=0).corrupt_text("") == "\x00"

    @given(seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_corrupt_reply_breaks_validity(self, seed):
        plan = FaultPlan(seed=seed)
        reply = {"html": "<html>x</html>", "country": "ES",
                 "region": "Madrid", "city": "Madrid"}
        mangled = plan.corrupt_reply(reply)
        assert mangled != reply
        # the original dict is never mutated
        assert reply["country"] == "ES" and "html" in reply


class TestBackoffPolicy:
    def test_grows_then_caps(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=5.0, jitter=0.0)
        delays = [policy.delay(a) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_in_band(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=30.0, jitter=0.1)
        rng = random.Random(3)
        for attempt in range(6):
            raw = min(30.0, 2.0 ** attempt)
            delay = policy.delay(attempt, rng)
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_negative_attempt_clamped(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, jitter=0.0)
        assert policy.delay(-3) == 1.0


class TestChaosProfiles:
    def test_all_profiles_instantiate(self):
        for name in CHAOS_PROFILES:
            plan = chaos_plan(name, seed=5)
            assert plan.name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            chaos_plan("calm_tuesday")

    def test_none_profile_is_clean(self):
        plan = chaos_plan("none", seed=1)
        for _ in range(20):
            assert plan.decide("a", "b", role=ROLE_PPC) is CLEAN


class TestPeerChannelIntegration:
    def _overlay(self, plan):
        overlay = PeerOverlay(faults=plan)
        peer_id = "peer-under-test"
        overlay.register(peer_id, LOC, handler=lambda m: {
            "html": "<html>ok</html>", "country": "ES",
            "region": "Madrid", "city": "Madrid",
        })
        return overlay, peer_id

    def test_drop_raises_connection_error(self):
        overlay, pid = self._overlay(
            FaultPlan([FaultRule(kind="drop", probability=1.0, dst=ROLE_PPC)])
        )
        with pytest.raises(ConnectionError):
            overlay.connect(pid).send({"url": "u"})

    def test_timeout_raises_peer_timeout(self):
        overlay, pid = self._overlay(
            FaultPlan([FaultRule(kind="timeout", probability=1.0, dst=ROLE_PPC)])
        )
        with pytest.raises(PeerTimeout):
            overlay.connect(pid).send({"url": "u"})

    def test_corrupt_mangles_reply(self):
        overlay, pid = self._overlay(
            FaultPlan([FaultRule(kind="corrupt", probability=1.0, dst=ROLE_PPC)])
        )
        reply = overlay.connect(pid).send({"url": "u"})
        complete = {"html", "country", "region", "city"} <= set(reply)
        truncated = "truncated by fault injection" in str(reply.get("html", ""))
        assert (not complete) or truncated

    def test_clean_overlay_unchanged(self):
        overlay, pid = self._overlay(None)
        reply = overlay.connect(pid).send({"url": "u"})
        assert reply["country"] == "ES"
