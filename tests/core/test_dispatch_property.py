"""Property tests for the request distribution protocol."""

import pytest

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import RequestDistributor
from repro.core.errors import (
    NoServerAvailable,
    PriceCheckFailed,
    QueueSaturated,
    SheriffError,
)
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES, bare_coordinator, lifecycle, submit_job

SERVERS = ("ms-0", "ms-1", "ms-2")

# an operation stream over 3 servers: (op, job index, server index)
_ops = st.lists(
    st.tuples(
        st.sampled_from((
            "new", "transfer", "failure", "heartbeat", "complete", "fail",
        )),
        st.integers(0, 59),
        st.integers(0, 2),
    ),
    min_size=20,
    max_size=60,
)


def _step(coordinator, op, job_id, server):
    if op == "new":
        # an offline server never receives a job
        record = submit_job(coordinator)
        assert coordinator.distributor.server(record.server_name).online
    elif op == "transfer":
        coordinator.transfer_job(job_id, server)
    elif op == "failure":
        coordinator.handle_server_failure(server)
    elif op == "heartbeat":
        coordinator.distributor.heartbeat(server, coordinator.clock.now)
    elif op == "complete":
        coordinator.job_completed(job_id)
    else:
        coordinator.fail_job(job_id, "test")


@given(ops=_ops)
@settings(max_examples=100, deadline=None)
def test_one_owner_per_job_under_any_schedule(ops):
    """Whatever happens, the Coordinator's records are the one owner
    record: every record is completed, failed or pending on exactly its
    ``server_name``, ``load()`` counts the unresolved records naming
    each server, no new job lands on an offline server, and
    assigned == completed + failed + pending."""
    telemetry = Telemetry()
    d = RequestDistributor(telemetry=telemetry)
    for i, name in enumerate(SERVERS):
        d.register_server(name, f"10.0.0.{i}")
    coordinator = bare_coordinator(d, telemetry=telemetry)
    for op, job_index, server_index in ops:
        # a pending job while there is one, so most steps move something
        records = coordinator.jobs.values()
        job_ids = (
            [r.job_id for r in records if not r.resolved]
            or list(coordinator.jobs) or ["ghost"]
        )
        job_id = job_ids[job_index % len(job_ids)]
        server = SERVERS[server_index]
        try:
            _step(coordinator, op, job_id, server)
        except SheriffError:
            pass  # no server, spent budget, resolved job: nothing moved
        if op == "failure":
            assert coordinator.jobs_on(server) == []
        # invariants hold at every step
        for record in coordinator.jobs.values():
            holders = [
                name for name in SERVERS
                if record.job_id in coordinator.jobs_on(name)
            ]
            if record.resolved:
                assert record.completed != record.failed
                assert holders == []
            else:
                assert holders == [record.server_name]
        records = coordinator.jobs.values()
        assert coordinator.load() == Counter(
            r.server_name for r in records if not r.resolved
        )
        completed = sum(r.completed for r in records)
        failed = sum(r.failed for r in records)
        pending = coordinator.pending_jobs()
        assert len(coordinator.jobs) == completed + failed + pending
        assert lifecycle(telemetry, "assigned") == len(coordinator.jobs)
        assert lifecycle(telemetry, "completed") == completed
        assert lifecycle(telemetry, "failed") == failed


@given(
    loads=st.lists(st.integers(0, 20), min_size=2, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_least_jobs_always_picks_minimum(loads):
    """The least loaded online server wins; on a fresh list, with no
    last pick to rotate from, ties go to the earliest registered."""
    d = RequestDistributor()
    for i in range(len(loads)):
        d.register_server(f"ms-{i}", f"10.0.0.{i}")
    chosen = d.select_server({f"ms-{i}": n for i, n in enumerate(loads)})
    assert chosen.name == f"ms-{loads.index(min(loads))}"


# an open-loop arrival schedule: (seconds after the previous arrival,
# which user arrives); fetches land on the world clock in between
_arrivals = st.lists(
    st.tuples(st.floats(0.0, 2.0), st.integers(0, 2)),
    min_size=2,
    max_size=10,
)


def _open_loop_deployment():
    """Three servers, two ES peers and three initiators over one store;
    returns the sheriff, the initiators and the store's product URLs."""
    world = SheriffWorld.create(seed=71)
    (store,) = build_named_stores(world, uniform_store_specs(1, seed=74)).values()
    sheriff = PriceSheriff(
        world, n_measurement_servers=3, ipc_sites=SMALL_IPC_SITES[:3],
        max_fetch_workers=2, telemetry=Telemetry(),
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    users = [
        sheriff.install_addon(world.make_browser("ES", "Madrid"), serve_as_ppc=False)
        for _ in range(3)
    ]
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    return sheriff, users, urls


def _spy_on(sheriff):
    """Record every assignment ``(load, online servers, pick)``, every
    fetch landing ``{job_id: [world time, ...]}`` as its task is placed,
    the jobs in the order they finish ``[(job_id, world time)]`` and
    every turnaround observation ``[(seconds, server)]`` of
    ``sheriff``."""
    clock = sheriff.world.clock
    distributor, engine = sheriff.distributor, sheriff.engine
    picks, landings, finished, turnarounds = [], {}, [], []

    select = distributor.select_server

    def select_server(load):
        online = [s.name for s in distributor.servers() if s.online]
        chosen = select(load)
        picks.append((dict(load), online, chosen.name))
        return chosen

    submit_job = engine.submit

    def submit_recorded(record, tasks, on_done=None):
        pool = engine.pool_for(record.server_name)
        place = pool.place

        def place_task(duration):
            taken, landing = place(duration)
            landings.setdefault(record.job_id, []).append(landing)
            return taken, landing

        def done_recorded():
            finished.append((record.job_id, clock.now))
            on_done()

        pool.place = place_task
        try:
            return submit_job(record, tasks, done_recorded)
        finally:
            del pool.place

    histogram = sheriff.telemetry.registry.get("sheriff_job_turnaround_seconds")
    observe = histogram.observe

    def observe_recorded(value, **labels):
        turnarounds.append((value, labels["server"]))
        observe(value, **labels)

    distributor.select_server = select_server
    engine.submit = submit_recorded
    histogram.observe = observe_recorded
    return picks, landings, finished, turnarounds


@given(arrivals=_arrivals)
@settings(max_examples=30, deadline=None)
def test_least_jobs_over_an_open_loop_schedule(arrivals):
    """Users arrive on their own schedule while earlier checks' fetches
    land on the world clock.  At every assignment the chosen server's
    pending count is the fleet minimum; when the whole fleet is idle the
    pick is the server after the last pick (rotation); and every job's
    turnaround is its last fetch landing minus its admission."""
    sheriff, users, urls = _open_loop_deployment()
    clock, loop = sheriff.world.clock, sheriff.engine.loop
    picks, landings, finished, turnarounds = _spy_on(sheriff)
    records, arrival = [], 0.0
    for i, (gap, user) in enumerate(arrivals):
        arrival += gap
        loop.run_until(max(clock.now, arrival))  # what lands before the user arrives
        records.append(users[user].submit_price_check(urls[i % len(urls)]))
    loop.run()

    names = [s.name for s in sheriff.distributor.servers()]
    previous = None
    for load, online, chosen in picks:
        assert load.get(chosen, 0) == min(load.get(name, 0) for name in online)
        if not any(load.get(name, 0) for name in names):
            after = names.index(previous) + 1 if previous is not None else 0
            assert chosen == names[after % len(names)]
        previous = chosen

    jobs = sheriff.coordinator.jobs
    assert sorted(job_id for job_id, _ in finished) == sorted(
        r.job_id for r in records)
    assert len(turnarounds) == len(records)
    for (job_id, finished_at), (seconds, server) in zip(finished, turnarounds):
        record = jobs[job_id]
        assert record.completed and server == record.server_name
        assert finished_at == max(landings[job_id])
        assert seconds == pytest.approx(finished_at - record.started_at)
    assert sheriff.coordinator.load() == {}


# a queued deployment's life: (op, server index) over 3 servers
_queued_ops = st.lists(
    st.tuples(
        st.sampled_from(("submit", "failure", "heartbeat", "collect")),
        st.integers(0, 2),
    ),
    min_size=4,
    max_size=18,
)


def _collect(initiator, handle):
    """``rows`` or ``"failed"``: the only two ways a check may end."""
    try:
        return initiator.collect(handle).rows
    except PriceCheckFailed:
        return "failed"


@given(ops=_queued_ops)
@settings(max_examples=60, deadline=None)
def test_every_queued_check_resolves_once(ops):
    """Whatever fails over, comes back or is collected in between, every
    queued check ends once: it returns rows exactly when its record is
    completed (and only then are rows stored), or raises
    ``PriceCheckFailed`` because its record failed.  The outbox drains
    and no server keeps a pending job."""
    world = SheriffWorld.create(seed=71)
    (store,) = build_named_stores(world, uniform_store_specs(1, seed=74)).values()
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    sheriff = PriceSheriff(
        world, n_measurement_servers=3, ipc_sites=SMALL_IPC_SITES[:3],
        job_queue=True, retry_budget=2,
        queue_steal_threshold=1, queue_depth=4,
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    initiator = sheriff.install_addon(
        world.make_browser("ES", "Madrid"), serve_as_ppc=False
    )
    coordinator = sheriff.coordinator
    handles, outcomes = [], {}
    for op, index in ops:
        server = SERVERS[index]
        if op == "submit":
            try:
                handles.append(
                    initiator.submit_price_check(urls[len(handles) % len(urls)])
                )
            except (NoServerAvailable, QueueSaturated):
                pass
        elif op == "failure":
            coordinator.handle_server_failure(server)
        elif op == "heartbeat":
            sheriff.distributor.heartbeat(server, world.clock.now)
        else:
            pending = [h for h in handles if h.job_id not in outcomes]
            if pending:
                handle = pending[index % len(pending)]
                outcomes[handle.job_id] = _collect(initiator, handle)
    for handle in handles:
        if handle.job_id not in outcomes:
            outcomes[handle.job_id] = _collect(initiator, handle)

    assert sheriff.job_queue.queue.depth == 0
    assert all(record.resolved for record in coordinator.jobs.values())
    for handle in handles:
        record = coordinator.jobs[handle.job_id]
        returned_rows = outcomes[handle.job_id] != "failed"
        stored = sheriff.db.sp_responses_for_job(handle.job_id)
        assert returned_rows == record.completed == bool(stored), handle.job_id
        if returned_rows:
            assert outcomes[handle.job_id]
    assert coordinator.load() == {}
    assert coordinator.pending_jobs() == 0
