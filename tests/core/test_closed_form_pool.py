"""The closed-form worker pool keeps the event-driven pool's schedule.

``repro.core.engine.WorkerPool`` places a job's fetches when the engine
submits the job, and the job is one loop event at its last landing;
``tests/oracles/event_pool.py`` is the pool it replaced, one loop event
per fetch.  Over random pool sizes (1-16), task durations (``0.0`` and
``CACHE_HIT_SECONDS`` ties among them) and submit instants — several
jobs at one instant, the loop run on between submits with fetches in
flight, or the clock moved while the pool is idle — both give:

* the same ``(taken, landing)`` per task;
* the same ``busy`` / ``queued`` just before and just after every
  submit, and the same ``peak_busy`` and ``tasks_run``;
* the same completion instant per job.

Ties at one instant.  The loop runs events in time order, and at one
instant in the order they were scheduled.  The closed form counts a
task whose landing the clock has reached as landed, except a
zero-second task at the very instant its job was placed: that one still
occupies its worker until the clock moves on, as its event in the
event-driven pool has not run yet.  The clock is moved the ways the loop moves it (``run_until``),
and directly only while nothing is in flight.  Two moves are left out,
because the closed form cannot see them: running the loop without
moving the clock, which runs the event-driven pool's zero-second events
at that instant and frees their workers, and moving the clock directly
past a landing the loop has not run, which leaves that task busy in
the event-driven pool.  The closed form counts both by the clock alone
(in flight, and landed); the schedule of every task is the same.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinator import COMPLETED, RUNNING, JobRecord
from repro.core.engine import CACHE_HIT_SECONDS, PriceCheckEngine
from repro.net.events import EventLoop
from tests.oracles.event_pool import EventWorkerPool

_durations = st.one_of(
    st.sampled_from((0.0, CACHE_HIT_SECONDS, 0.25)), st.floats(0.001, 3.0)
)
# one job: (duration, lands a row) per fetch, the initiator's first
_jobs = st.lists(st.tuples(_durations, st.booleans()), min_size=1, max_size=40)
# (seconds the clock moves before the submit, move it directly when the
# pool is idle, the job)
_steps = st.lists(
    st.tuples(
        st.one_of(st.sampled_from((0.0, CACHE_HIT_SECONDS)), st.floats(0.0, 5.0)),
        st.booleans(),
        _jobs,
    ),
    min_size=1,
    max_size=12,
)


def _record(j, n_rows):
    return JobRecord(
        job_id=f"job-{j}", peer_id="peer", url="http://s.example/p",
        domain="s.example", server_name="ms-0", state=RUNNING,
        result=SimpleNamespace(rows=list(range(n_rows))),
    )


@given(size=st.integers(1, 16), steps=_steps)
@settings(max_examples=300, deadline=None)
def test_closed_form_pool_keeps_the_event_pool_schedule(size, steps):
    loop = EventLoop()
    engine = PriceCheckEngine(loop, max_workers=size)
    pool = engine.pool_for("ms-0")
    oracle_loop = EventLoop()
    oracle = EventWorkerPool(oracle_loop, size)

    placed = []  # the closed form's (taken, landing) per task
    place = pool.place

    def place_recorded(duration):
        placed.append(place(duration))
        return placed[-1]

    pool.place = place_recorded
    scheduled = []  # the oracle's (taken, landing) per task
    oracle_done, done, records = {}, {}, []

    def on_land(j, index, left):
        def land(taken):
            scheduled[index] = (taken, oracle_loop.clock.now)
            left[0] -= 1
            if left[0] == 0:
                oracle_done[j] = oracle_loop.clock.now
        return land

    for j, (gap, direct, tasks) in enumerate(steps):
        target = loop.clock.now + gap
        if target > loop.clock.now:  # a gap too small to move the clock is none
            if direct and oracle.busy == oracle.queued == 0:
                loop.clock.advance_to(target)
                oracle_loop.clock.advance_to(target)
            else:
                loop.run_until(target)
                oracle_loop.run_until(target)
        assert loop.clock.now == oracle_loop.clock.now
        assert (pool.busy, pool.queued) == (oracle.busy, oracle.queued)

        record = _record(j, sum(ok for _, ok in tasks))
        records.append(record)

        def report(j=j, record=record):  # the Coordinator's part
            done[j] = loop.clock.now
            record.state = COMPLETED

        engine.submit(
            record, [(d, ok, "IPC", f"ipc-{i}", None) for i, (d, ok) in enumerate(tasks)],
            on_done=report,
        )
        left = [len(tasks)]
        for d, _ in tasks:
            scheduled.append(None)
            oracle.submit(d, on_land(j, len(scheduled) - 1, left))
        assert (pool.busy, pool.queued) == (oracle.busy, oracle.queued)
        assert pool.peak_busy == oracle.peak_busy

    oracle_loop.run()
    assert placed == scheduled
    assert oracle.tasks_run == pool.tasks_run == len(placed)

    # drive every job to its end, in submission order
    for j, record in enumerate(records):
        engine.drive(record)
        assert done[j] == oracle_done[j]
    loop.run()
    assert done == oracle_done
    assert pool._in_flight == {}
    assert (pool.busy, pool.queued) == (0, 0)
