"""Mesh tests: service skeleton semantics and a real-process smoke run."""

import dataclasses
import json
import sys
import time

import pytest

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.errors import InvalidConfig
from repro.mesh import launch
from repro.mesh.launch import MeshLauncher, MeshReport, WorkerSpec
from repro.mesh.service import MeshService
from repro.mesh.worker import worker_from_argv
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.sim import NetworkError
from tests.core.test_config import KNOBS, assert_knob_reached, non_default


class TestMeshService:
    def make(self):
        calls = []
        return MeshService(
            "w0", methods={"work": lambda p: calls.append(p) or {"ok": True}}
        ), calls

    def test_hello_reports_identity(self):
        service, _ = self.make()
        hello = service.handle("mesh.hello", {"protocol": PROTOCOL_VERSION})
        assert hello["name"] == "w0"
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["methods"] == ["work"]

    def test_hello_rejects_version_mismatch(self):
        service, _ = self.make()
        with pytest.raises(NetworkError):
            service.handle("mesh.hello", {"protocol": PROTOCOL_VERSION + 1})

    def test_ping_counts_heartbeats(self):
        service, _ = self.make()
        assert service.handle("mesh.ping", {})["pong"] == 1
        assert service.handle("mesh.ping", {})["pong"] == 2

    def test_component_methods_routed(self):
        service, calls = self.make()
        assert service.handle("work", {"x": 1}) == {"ok": True}
        assert calls == [{"x": 1}]

    def test_unknown_method_raises(self):
        service, _ = self.make()
        with pytest.raises(KeyError):
            service.handle("mystery", {})

    def test_drain_refuses_component_work_but_answers_control(self):
        service, _ = self.make()
        service.handle("mesh.drain", {})
        assert service.draining
        with pytest.raises(NetworkError):
            service.handle("work", {})
        # heartbeats and hello still answer while draining
        assert service.handle("mesh.ping", {})["pong"] == 1

    def test_shutdown_sets_stop(self):
        service, _ = self.make()
        service.handle("mesh.shutdown", {})
        assert service.wait(timeout=0.1)


#: a cell small enough to build in-process once per knob
TINY_SPEC = WorkerSpec(
    n_stores=1, n_users=2, n_measurement_servers=1,
    ipc_sites=DEFAULT_IPC_SITES[:4],
)


class TestWorkerSpec:
    def test_argv_round_trips_the_shape(self):
        spec = WorkerSpec(seed=5, n_stores=3, ipc_sites=DEFAULT_IPC_SITES[:7])
        argv = spec.argv("w9")
        assert argv[1:3] == ["-m", "repro.mesh.worker"]
        # the whole spec is the one argument after --name NAME
        assert argv[3:5] == ["--name", "w9"] and len(argv) == 6
        assert WorkerSpec.from_dict(json.loads(argv[5])) == spec

    def test_defaults_are_the_mesh_cell(self):
        spec = WorkerSpec()
        assert spec.n_measurement_servers == 2
        assert spec.ipc_sites == DEFAULT_IPC_SITES[:10]
        assert spec.max_fetch_workers == 16
        assert spec.page_cache_ttl == 30.0

    @pytest.mark.parametrize("name", KNOBS)
    def test_every_knob_reaches_the_worker_sheriff(self, name):
        """spec → argv() → the worker's argument parser → an in-process
        MeasurementWorker: what the launcher set is what the process
        builds (``job_queue`` included — the case ``mesh_load`` needs)."""
        value = non_default(TINY_SPEC, name)
        argv = dataclasses.replace(TINY_SPEC, **{name: value}).argv("w0")
        worker = worker_from_argv(argv[3:])
        try:
            assert worker.name == "w0"
            assert_knob_reached(worker.sheriff, name, value)
            assert worker.check_price({"index": 0})["rows"] > 0
        finally:
            worker.sheriff.shutdown()

    def test_worker_rejects_a_bad_spec_by_name(self):
        with pytest.raises(InvalidConfig, match="unknown workerspec config.*n_ipcs"):
            worker_from_argv(["--name", "w0", '{"n_ipcs": 7}'])
        with pytest.raises(InvalidConfig, match="quorum"):
            MeshLauncher(n_workers=1, spec=WorkerSpec(quorum=0))

    @pytest.mark.parametrize(
        "flag", ["--seed", "--stores", "--servers", "--ipcs", "--users",
                 "--fetch-workers", "--cache-ttl"],
    )
    def test_per_knob_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            worker_from_argv(["--name", "w0", flag, "3", "{}"])


class TestMeshReport:
    def test_to_dict_shape(self):
        report = MeshReport(
            workers=2, checks_requested=4, checks_completed=4,
            rows=28, wall_s=0.5, checks_per_sec_wall=8.0,
        )
        entry = report.to_dict()
        assert entry["mode"] == "mesh"
        assert entry["completed_fraction"] == 1.0
        assert entry["checks_per_sec_wall"] == 8.0


@pytest.mark.parametrize(
    "kwargs, match",
    [({"total": -3}, "total"), ({"total": 4, "concurrency": 0}, "concurrency"),
     ({"total": 4, "concurrency": -1}, "concurrency")],
)
def test_run_checks_refuses_a_bad_count(kwargs, match):
    """Refused by name, before a thread pool is asked for no workers."""
    launcher = MeshLauncher(n_workers=1)
    try:
        with pytest.raises(ValueError, match=match):
            launcher.run_checks(**kwargs)
    finally:
        launcher.shutdown()


@dataclasses.dataclass
class _ScriptSpec(WorkerSpec):
    """A worker that runs ``script`` instead of a measurement cell."""

    script: str = ""

    def argv(self, name):
        return [sys.executable, "-c", self.script]


class TestReadyDeadline:
    """The launcher waits for a ready line with a bounded wait."""

    def test_a_silent_worker_misses_its_deadline(self, monkeypatch):
        monkeypatch.setattr(launch, "READY_TIMEOUT_S", 0.5)
        launcher = MeshLauncher(
            n_workers=1, spec=_ScriptSpec(script="import time; time.sleep(6)"))
        started = time.monotonic()
        with pytest.raises(NetworkError, match="not ready within"):
            launcher.start()
        assert time.monotonic() - started < 3.0
        assert all(w.proc.poll() is not None for w in launcher.workers)
        launcher.shutdown()

    def test_a_chatty_worker_is_drained(self, monkeypatch):
        """200 kB of stderr before the exit: more than a pipe holds, so
        the worker would block on it if nobody read the pipe."""
        monkeypatch.setattr(launch, "READY_TIMEOUT_S", 10.0)
        script = ("import sys; sys.stderr.write('x' * 200_000 + 'last words'); "
                  "sys.exit(3)")
        launcher = MeshLauncher(n_workers=1, spec=_ScriptSpec(script=script))
        started = time.monotonic()
        with pytest.raises(NetworkError, match="rc=3 before ready: x+last words"):
            launcher.start()
        assert time.monotonic() - started < 5.0
        assert all(w.proc.poll() is not None for w in launcher.workers)


class TestMeshSmoke:
    """End to end: real worker processes, real sockets, graceful drain."""

    def test_two_process_fleet(self):
        launcher = MeshLauncher(
            n_workers=2,
            spec=WorkerSpec(
                n_stores=2, ipc_sites=DEFAULT_IPC_SITES[:6], n_users=4
            ),
        )
        try:
            hellos = launcher.start()
            assert [h["name"] for h in hellos] == ["w0", "w1"]
            assert all(h["protocol"] == PROTOCOL_VERSION for h in hellos)
            beats = launcher.heartbeat()
            assert set(beats) == {"w0", "w1"}
            report = launcher.run_checks(total=4, concurrency=2)
        finally:
            codes = launcher.shutdown()
        assert report.checks_completed == 4
        assert report.failures == 0
        assert report.rows > 0
        assert report.checks_per_sec_wall > 0
        # both workers shared the load and exited 0 on SIGTERM drain
        assert {s["worker"] for s in report.per_worker} == {"w0", "w1"}
        assert all(s["checks"] > 0 for s in report.per_worker)
        assert codes == {"w0": 0, "w1": 0}

    def test_identical_seeds_give_identical_digests(self):
        """Two workers with the same seed build the same world — the
        same check index returns the same row digest from either, the
        multi-process echo of the row-identity guarantee."""
        launcher = MeshLauncher(
            n_workers=2,
            spec=WorkerSpec(
                n_stores=2, ipc_sites=DEFAULT_IPC_SITES[:6], n_users=4
            ),
        )
        try:
            launcher.start()
            a = launcher.transport.call(
                MeshLauncher.CLIENT, "w0", "check_price", {"index": 0}
            )
            b = launcher.transport.call(
                MeshLauncher.CLIENT, "w1", "check_price", {"index": 0}
            )
        finally:
            launcher.shutdown()
        assert a["digest"] == b["digest"]
        assert a["url"] == b["url"]
