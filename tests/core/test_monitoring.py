"""Tests for the monitoring panels (Figs. 7 & 16)."""

from repro.core.dispatch import RequestDistributor
from repro.core.monitoring import (
    faults_panel,
    peers_panel,
    render_table,
    servers_panel,
)
from repro.net.faults import FaultPlan, FaultRule
from repro.net.geo import GeoDatabase
from repro.net.p2p import PeerOverlay

from .conftest import bare_coordinator, submit_job


def test_render_table_alignment():
    rows = [{"A": "x", "B": 1}, {"A": "longer", "B": 22}]
    table = render_table(rows, columns=("A", "B"))
    lines = table.splitlines()
    assert lines[0].startswith("A")
    assert len(lines) == 4
    assert all(len(line) <= len(lines[1]) for line in lines)


def test_servers_panel_matches_fig7():
    d = RequestDistributor()
    d.register_server("ms-0", "192.168.1.11", 80)
    d.register_server("ms-1", "192.168.1.12", 80)
    d.server("ms-1").online = False
    coordinator = bare_coordinator(d)
    submit_job(coordinator)
    panel = servers_panel(coordinator)
    assert "Available Sheriff servers and jobs." in panel
    assert "192.168.1.11" in panel
    assert "offline" in panel
    assert "online" in panel
    rows = d.monitoring_rows(coordinator.load())
    assert [row["Jobs"] for row in rows] == [1, 0]


def test_peers_panel_matches_fig16():
    geodb = GeoDatabase()
    overlay = PeerOverlay()
    overlay.register("peer-a", geodb.make_location("ES", "Barcelona"), lambda m: m)
    overlay.register("peer-b", geodb.make_location("ES", "Madrid"), lambda m: m)
    panel = peers_panel(overlay, self_peer_id="peer-b")
    assert "Barcelona" in panel
    assert "SELF" in panel
    lines = panel.splitlines()
    assert any("peer-a" in line for line in lines)


def _counters(panel):
    """``{counter: value}`` of a faults panel, in row order."""
    title, header, sep, *rows = panel.splitlines()
    assert title == "Fault injection and recovery counters."
    return dict(row.split() for row in rows)


def test_faults_panel_tallies_the_event_log_and_merges_recovery():
    plan = FaultPlan(
        [FaultRule(kind="drop", probability=1.0),
         FaultRule(kind="timeout", probability=1.0)],
        name="drill",
    )
    plan.decide("coordinator", "peer-a")
    plan.decide("coordinator", "peer-b")
    plan.decide("coordinator", "peer-a", kinds=("timeout",))
    panel = faults_panel(
        plan,
        # the event log's own counters are not repeated from the report
        recovery={"chaos_profile": "stale", "faults_injected": 99,
                  "failovers": 4, "retries": 2},
    )
    assert list(_counters(panel).items()) == [
        ("chaos_profile", "drill"),
        ("faults_injected", "3"),
        ("faults_drop", "2"),
        ("faults_timeout", "1"),
        ("failovers", "4"),
        ("retries", "2"),
    ]


def test_faults_panel_of_a_clean_run():
    assert _counters(faults_panel(None)) == {
        "chaos_profile": "none", "faults_injected": "0",
    }
    assert _counters(faults_panel(None, recovery={"failovers": 0})) == {
        "chaos_profile": "none", "faults_injected": "0", "failovers": "0",
    }
