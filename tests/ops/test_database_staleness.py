"""The Database server's staleness watch.

Part one pins :class:`DatabaseStalenessProbe`'s verdicts against a stub
server (no deployment, no RNG); part two asserts ``build_supervisor``
registers one alert-only ``db/db`` component over the sheriff's one
Database server, and no second detector repeating its check.
"""

from types import SimpleNamespace

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.ops import build_supervisor
from repro.ops.health import DatabaseStalenessProbe
from repro.ops.wiring import DB_STALENESS

from ..core.conftest import SMALL_IPC_SITES


class TestDatabaseStalenessProbe:
    def test_never_written_is_healthy(self):
        probe = DatabaseStalenessProbe(SimpleNamespace(last_write_time=None), 10.0)
        assert probe.check(1_000.0).healthy

    def test_recent_write_is_healthy(self):
        probe = DatabaseStalenessProbe(SimpleNamespace(last_write_time=95.0), 10.0)
        result = probe.check(100.0)
        assert result.healthy
        assert result.value == 5.0

    def test_old_write_alerts(self):
        db = SimpleNamespace(last_write_time=50.0)
        result = DatabaseStalenessProbe(db, 10.0).check(100.0)
        assert not result.healthy
        assert "no write for 50s > 10s" in result.reason
        assert result.metrics == {"staleness_s": 50.0, "max_age_s": 10.0}
        db.last_write_time = 99.0
        assert DatabaseStalenessProbe(db, 10.0).check(100.0).healthy


def test_supervisor_watches_the_one_database_server():
    sheriff = PriceSheriff(
        SheriffWorld.create(seed=11), n_measurement_servers=2,
        ipc_sites=SMALL_IPC_SITES,
    )
    supervisor = build_supervisor(sheriff)
    db_components = [name for name in supervisor.components if name.startswith("db/")]
    assert db_components == ["db/db"]
    component = supervisor.components["db/db"]
    assert component.restart is None  # alert-only: no process to bounce
    (probe,) = component.probes
    assert isinstance(probe, DatabaseStalenessProbe)
    assert probe.db is sheriff.db and probe.max_age == DB_STALENESS
    assert [d.name for d in supervisor._detectors] == ["error-spike", "pollution-budget"]
    assert supervisor.tick() == []
