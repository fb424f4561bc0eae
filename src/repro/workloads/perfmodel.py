"""The Table 1 performance model: old vs new back-end architecture.

Sect. 5 stress-tests both versions with Selenium-driven client browsers
and reports response time per task and the derivable maximum daily
request rate.  This discrete-event model captures the two mechanisms
the paper blames for the old version's collapse near 10 parallel tasks
(App. 10.2.1):

* **CPU context switching** — per-task processing time scales with the
  number of tasks concurrently on the server; the slimmed-down new
  Measurement server has a smaller CPU footprint per task;
* **the integrated database** — the old version serializes every task
  through an on-box RDBMS whose per-operation time also degrades with
  concurrency (lock contention + buffer pressure); the new version
  talks to the shared Database server through a warm connection pool
  with stored procedures, making DB time small and load-insensitive.

Each "client" is a Selenium browser keeping ``streams_per_client``
price checks in flight (closed loop).  Proxy fetch time is
load-independent — it is bounded by the slowest proxy, occasionally a
lagging PlanetLab node, which is also why the *new* version's response
time floors around one minute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.net.events import EventLoop

#: calibrated service-time constants (seconds)
FETCH_MEAN = 46.0
FETCH_SIGMA = 0.18
SLOW_PROXY_PROB = 0.12
SLOW_PROXY_EXTRA = (10.0, 35.0)

OLD_CPU_PER_TASK = 4.0
NEW_CPU_PER_TASK = 3.0
OLD_DB_BASE = 15.0
OLD_DB_LOAD_FACTOR = 0.14  # hold time grows with concurrent tasks
NEW_DB_TIME = 2.0
OLD_CRASH_TASKS = 15  # beyond this the old server falls over (Sect. 5)


class ServerCrashed(RuntimeError):
    """The old Measurement server collapsed under load."""


@dataclass
class PerfRow:
    """One row of Table 1."""

    version: str
    n_clients: int
    n_servers: int
    avg_parallel_tasks: float
    response_minutes: float
    max_daily_requests: float


class _Server:
    """One Measurement server instance in the model."""

    def __init__(self, name: str, version: str, loop: EventLoop,
                 rng: random.Random, speed_factor: float = 1.0) -> None:
        self.name = name
        self.version = version
        self.loop = loop
        self.rng = rng
        #: >1 = a slower machine: CPU and DB phases take proportionally
        #: longer (the heterogeneity motivating least-jobs dispatch)
        self.speed_factor = speed_factor
        self.tasks = 0
        self.crashed = False
        self._db_busy_until = 0.0
        # time-integral of concurrency, for the avg-parallel-tasks column
        self._last_change = 0.0
        self._task_seconds = 0.0

    # -- concurrency accounting --------------------------------------------
    def _mark(self) -> None:
        now = self.loop.clock.now
        self._task_seconds += self.tasks * (now - self._last_change)
        self._last_change = now

    def avg_tasks(self, horizon: float) -> float:
        self._mark()
        return self._task_seconds / horizon if horizon > 0 else 0.0

    # -- service-time components ----------------------------------------------
    def _fetch_time(self) -> float:
        t = FETCH_MEAN * self.rng.lognormvariate(0.0, FETCH_SIGMA)
        if self.rng.random() < SLOW_PROXY_PROB:
            t += self.rng.uniform(*SLOW_PROXY_EXTRA)
        return t

    def _cpu_time(self) -> float:
        per_task = OLD_CPU_PER_TASK if self.version == "old" else NEW_CPU_PER_TASK
        return per_task * max(1, self.tasks) * self.speed_factor

    def _db_delay(self) -> float:
        """Seconds until this task clears the database phase."""
        now = self.loop.clock.now
        if self.version == "new":
            return NEW_DB_TIME * self.speed_factor
        hold = OLD_DB_BASE * (1.0 + OLD_DB_LOAD_FACTOR * self.tasks)
        hold *= self.speed_factor
        start = max(now, self._db_busy_until)
        self._db_busy_until = start + hold
        return (start - now) + hold

    # -- task lifecycle ---------------------------------------------------------
    def submit(self, done: Callable[[float], None]) -> None:
        if self.crashed:
            raise ServerCrashed(self.name)
        self._mark()
        self.tasks += 1
        if self.version == "old" and self.tasks > OLD_CRASH_TASKS:
            self.crashed = True
            raise ServerCrashed(self.name)
        started = self.loop.clock.now

        def after_fetch() -> None:
            cpu = self._cpu_time()
            self.loop.call_later(cpu, after_cpu)

        def after_cpu() -> None:
            self.loop.call_later(self._db_delay(), finish)

        def finish() -> None:
            self._mark()
            self.tasks -= 1
            done(self.loop.clock.now - started)

        self.loop.call_later(self._fetch_time(), after_fetch)


class PerformanceModel:
    """One stress-test configuration of Sect. 5."""

    def __init__(
        self,
        version: str,
        n_clients: int,
        n_servers: int,
        streams_per_client: int = 5,
        seed: int = 5,
        policy: str = "least_jobs",
        server_speed_factors: Optional[List[float]] = None,
    ) -> None:
        if version not in ("old", "new"):
            raise ValueError(f"unknown version {version!r}")
        if policy not in ("least_jobs", "round_robin"):
            raise ValueError(f"unknown dispatch policy {policy!r}")
        self.version = version
        self.n_clients = n_clients
        self.n_servers = n_servers
        self.streams_per_client = streams_per_client
        self.policy = policy
        self.rng = random.Random(seed)
        self.loop = EventLoop()
        speeds = server_speed_factors or [1.0] * n_servers
        if len(speeds) != n_servers:
            raise ValueError("one speed factor per server required")
        self.servers = [
            _Server(f"ms-{i}", version, self.loop, self.rng, speed_factor=speeds[i])
            for i in range(n_servers)
        ]
        self.response_times: List[float] = []
        self.completions = 0
        self.crashed = False
        self._rr = 0

    def _pick_server(self) -> _Server:
        alive = [s for s in self.servers if not s.crashed]
        if not alive:
            raise ServerCrashed("all servers down")
        if self.policy == "round_robin":
            server = alive[self._rr % len(alive)]
            self._rr += 1
            return server
        return min(alive, key=lambda s: s.tasks)

    def _start_stream(self) -> None:
        """One Selenium stream: submit, wait, think, repeat."""

        def submit() -> None:
            if self.crashed:
                return
            try:
                server = self._pick_server()
                server.submit(done)
            except ServerCrashed:
                self.crashed = True

        def done(response_time: float) -> None:
            self.response_times.append(response_time)
            self.completions += 1
            think = self.rng.uniform(1.0, 4.0)
            self.loop.call_later(think, submit)

        self.loop.call_later(self.rng.uniform(0.0, 10.0), submit)

    def run(self, sim_minutes: float = 180.0, warmup_minutes: float = 20.0) -> PerfRow:
        """Run the closed-loop stress test and summarize the window."""
        for _ in range(self.n_clients * self.streams_per_client):
            self._start_stream()
        warmup_seconds = warmup_minutes * 60.0
        self.loop.run_until(warmup_seconds)
        self.response_times.clear()
        completions_before = self.completions
        for server in self.servers:
            server._mark()
            server._task_seconds = 0.0
        self.loop.run_until(sim_minutes * 60.0)
        horizon = (sim_minutes - warmup_minutes) * 60.0
        completed = self.completions - completions_before
        avg_tasks = sum(s.avg_tasks(horizon) for s in self.servers)
        response = (
            sum(self.response_times) / len(self.response_times)
            if self.response_times
            else float("nan")
        )
        throughput_per_day = completed / horizon * 86_400.0
        return PerfRow(
            version=self.version,
            n_clients=self.n_clients,
            n_servers=self.n_servers,
            avg_parallel_tasks=avg_tasks,
            response_minutes=response / 60.0,
            max_daily_requests=throughput_per_day,
        )


#: the five configurations of Table 1:
#: (version, clients, servers, streams per client)
TABLE1_CONFIGS: Tuple[Tuple[str, int, int, int], ...] = (
    ("old", 1, 1, 5),
    ("old", 2, 1, 5),
    ("new", 1, 1, 5),
    ("new", 2, 1, 5),
    ("new", 3, 4, 13),
)


def run_table1(sim_minutes: float = 180.0) -> List[PerfRow]:
    """Regenerate every row of Table 1."""
    rows = []
    for version, clients, servers, streams in TABLE1_CONFIGS:
        model = PerformanceModel(
            version, clients, servers, streams_per_client=streams, seed=5
        )
        rows.append(model.run(sim_minutes=sim_minutes))
    return rows
