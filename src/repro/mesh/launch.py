"""The mesh launcher: spawn, handshake, drive, and drain worker processes.

:class:`MeshLauncher` is the parent side of the mesh.  It spawns N
:mod:`repro.mesh.worker` processes with ``sys.executable``, waits for
each one's ``MESH-READY`` line, verifies the protocol handshake, and
then exposes the fleet through one :class:`SocketTransport` client.
``run_checks`` farms a workload across the fleet from a thread pool and
measures **wall-clock** throughput — real processes, real sockets, real
cores, the honest number the sim cannot produce.

Shutdown is graceful by default: ``mesh.drain`` to every worker, then
SIGTERM (the workers' signal handler finishes in-flight work and exits
0), escalating to kill only on timeout.
"""

from __future__ import annotations

import collections
import concurrent.futures
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.config import knob
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.sim import NetworkError
from repro.net.socket_transport import SocketTransport
from repro.workloads.cell import CellConfig

__all__ = ["MeshLauncher", "MeshReport", "WorkerSpec"]

#: how long to wait for a worker's ready line (it builds a whole world)
READY_TIMEOUT_S = 90.0


@dataclass
class WorkerSpec(CellConfig):
    """The cell every worker process builds: a whole deployment config
    plus its seeded world, handed across the process boundary as JSON."""

    ipc_sites: Tuple[Tuple[str, str, float], ...] = DEFAULT_IPC_SITES[:10]
    page_cache_ttl: float = 30.0
    n_stores: int = 4
    n_users: int = knob(8, ge=1)

    def argv(self, name: str) -> List[str]:
        return [
            sys.executable, "-m", "repro.mesh.worker",
            "--name", name, json.dumps(self.to_dict()),
        ]


@dataclass
class MeshReport:
    """What one mesh run measured (``repro mesh --out`` writes it)."""

    workers: int
    checks_requested: int
    checks_completed: int
    rows: int
    wall_s: float
    checks_per_sec_wall: float
    failures: int = 0
    per_worker: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed_fraction(self) -> float:
        if self.checks_requested == 0:
            return 1.0
        return self.checks_completed / self.checks_requested

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": "mesh",
            "workers": self.workers,
            "checks_requested": self.checks_requested,
            "checks_completed": self.checks_completed,
            "completed_fraction": round(self.completed_fraction, 4),
            "rows": self.rows,
            "wall_s": round(self.wall_s, 3),
            "checks_per_sec_wall": round(self.checks_per_sec_wall, 3),
            "failures": self.failures,
            "per_worker": self.per_worker,
        }


class _WorkerProc:
    """One spawned worker.  A thread per pipe drains it for the worker's
    whole life: a wait for the ready line can time out, and a chatty
    worker never blocks on a full pipe."""

    def __init__(self, name: str, proc: subprocess.Popen) -> None:
        self.name = name
        self.proc = proc
        self.port: Optional[int] = None
        self.hello: Optional[Dict[str, Any]] = None
        #: stdout lines as they arrive; ``None`` once stdout closes
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._err: Deque[str] = collections.deque(maxlen=64)
        self._readers = [
            threading.Thread(target=self._drain, args=(proc.stdout, self.lines.put),
                             daemon=True),
            threading.Thread(target=self._drain, args=(proc.stderr, self._err.append),
                             daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    @staticmethod
    def _drain(stream, sink: Callable[[Optional[str]], None]) -> None:
        with stream:
            for line in stream:
                sink(line)
        sink(None)

    def stderr_tail(self) -> str:
        """The last 2000 characters the worker wrote to stderr."""
        self._readers[1].join(timeout=1.0)
        return "".join(line for line in self._err if line)[-2000:]

    def reap(self, timeout: float) -> None:
        """Wait ``timeout`` for the exit, then kill; let the pipes close."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        for reader in self._readers:
            reader.join(timeout=1.0)


class MeshLauncher:
    """Parent-side control plane for a fleet of worker processes."""

    CLIENT = "mesh-launcher"

    def __init__(
        self,
        n_workers: int = 2,
        spec: Optional[WorkerSpec] = None,
        call_timeout: float = 60.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.spec = (spec if spec is not None else WorkerSpec()).validate()
        self.call_timeout = call_timeout
        self.transport = SocketTransport(call_timeout=call_timeout)
        self.transport.register_client(self.CLIENT)
        self.workers: List[_WorkerProc] = []
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> List[Dict[str, Any]]:
        """Spawn the fleet; return each worker's handshake response."""
        env = os.environ.copy()
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        parts = [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        for i in range(self.n_workers):
            name = f"w{i}"
            proc = subprocess.Popen(
                self.spec.argv(name),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            self.workers.append(_WorkerProc(name, proc))
        hellos = []
        try:
            deadline = time.monotonic() + READY_TIMEOUT_S
            for worker in self.workers:
                self._await_ready(worker, deadline)
                self.transport.connect_peer(worker.name, "127.0.0.1", worker.port)
                worker.hello = self.transport.call(
                    self.CLIENT, worker.name, "mesh.hello",
                    {"protocol": PROTOCOL_VERSION},
                )
                hellos.append(worker.hello)
        except BaseException:
            # a fleet that did not come up leaves no process behind
            self.shutdown(graceful=False, timeout=2.0)
            raise
        return hellos

    @staticmethod
    def _await_ready(worker: _WorkerProc, deadline: float) -> None:
        while True:
            try:
                line = worker.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise NetworkError(
                    f"worker {worker.name} not ready within {READY_TIMEOUT_S} s"
                ) from None
            if line is None:
                try:
                    worker.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    pass
                raise NetworkError(
                    f"worker {worker.name} exited rc={worker.proc.returncode} "
                    f"before ready: {worker.stderr_tail()}"
                )
            if line.startswith("MESH-READY"):
                fields = dict(
                    part.split("=", 1) for part in line.split()[1:] if "=" in part
                )
                worker.port = int(fields["port"])
                return

    def heartbeat(self) -> Dict[str, Any]:
        """Ping every worker; raises NetworkError if one is gone."""
        return {
            w.name: self.transport.call(self.CLIENT, w.name, "mesh.ping", {})
            for w in self.workers
        }

    # -- the workload -------------------------------------------------------
    def run_checks(
        self, total: int, concurrency: Optional[int] = None
    ) -> MeshReport:
        """Farm ``total`` checks across the fleet; measure wall clock."""
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if concurrency is not None and concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if not self.workers:
            raise NetworkError("mesh not started")
        concurrency = concurrency or min(total, 4 * len(self.workers)) or 1
        results: List[Optional[Dict[str, Any]]] = [None] * total
        failures = 0

        def one(i: int) -> None:
            worker = self.workers[i % len(self.workers)]
            results[i] = self.transport.call(
                self.CLIENT, worker.name, "check_price", {"index": i},
                timeout=self.call_timeout,
            )

        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = [pool.submit(one, i) for i in range(total)]
            for fut in concurrent.futures.as_completed(futures):
                if fut.exception() is not None:
                    failures += 1
        wall = max(time.perf_counter() - started, 1e-9)
        completed = [r for r in results if r is not None]
        per_worker = []
        for worker in self.workers:
            try:
                per_worker.append(
                    self.transport.call(self.CLIENT, worker.name, "stats", {})
                )
            except NetworkError:
                per_worker.append({"worker": worker.name, "error": "unreachable"})
        return MeshReport(
            workers=len(self.workers),
            checks_requested=total,
            checks_completed=len(completed),
            rows=sum(r["rows"] for r in completed),
            wall_s=wall,
            checks_per_sec_wall=len(completed) / wall,
            failures=failures,
            per_worker=per_worker,
        )

    # -- shutdown -----------------------------------------------------------
    def shutdown(self, graceful: bool = True, timeout: float = 15.0) -> Dict[str, int]:
        """Drain + SIGTERM the fleet; kill stragglers; return exit codes."""
        codes: Dict[str, int] = {}
        if graceful:
            for worker in self.workers:
                try:
                    self.transport.call(
                        self.CLIENT, worker.name, "mesh.drain", {}, timeout=5.0
                    )
                except NetworkError:
                    pass
        for worker in self.workers:
            if worker.proc.poll() is None:
                worker.proc.terminate()
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.reap(timeout=max(0.1, deadline - time.monotonic()))
            codes[worker.name] = worker.proc.returncode
        self.transport.close()
        return codes

    def __enter__(self) -> "MeshLauncher":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(graceful=exc_type is None)
