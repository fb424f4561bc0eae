"""The job lifecycle: submit → poll → result.

``MeasurementServer.submit`` returns the job's :class:`JobRecord`; ``poll``
pumps the engine's simulated timeline and hands out arrived rows in
progressive batches; ``result`` drives the job to its terminal state.
The queued measurement tier is the other entry point offering the same
three methods (routing is pinned by test_jobapi.py).
"""

import pytest

from repro.core.errors import UnknownJob


def _first_product_url(world, domain="uniform.example"):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[0].product_id)


class TestSubmitPollResult:
    def test_submit_returns_in_flight_handle(self, world, sheriff, es_user, es_peers):
        record = es_user.submit_price_check(_first_product_url(world))
        assert record is sheriff.coordinator.jobs[record.job_id]
        assert record.state == "running"
        assert not record.resolved
        # the fan-out is already decided: the result rows exist, they
        # just have not landed on the simulated timeline yet
        assert len(record.result.rows) > 1
        assert record.rows_arrived < len(record.result.rows)

    def test_poll_delivers_progressive_batches(self, world, sheriff, es_user, es_peers):
        record = es_user.submit_price_check(_first_product_url(world))
        rows = list(record.result.rows)
        server = sheriff.measurement_server(record.server_name)
        delivered = []
        finished = False
        polls = 0
        while not finished:
            batch, finished = server.poll(record)
            delivered.extend(batch)
            polls += 1
            assert len(batch) <= 8
            assert polls < 100
        assert delivered == rows
        assert record.result is None  # the finishing poll dropped it
        # a finished job is forgotten: polling again is an error
        with pytest.raises(UnknownJob):
            server.poll(record)

    def test_result_drives_to_terminal_state(self, world, sheriff, es_user, es_peers):
        record = es_user.submit_price_check(_first_product_url(world))
        result = es_user.collect(record)
        assert record.state == "completed"
        assert record.resolved
        assert record.rows_arrived == len(result.rows)
        assert record.result is None  # collected: the record drops it
        # the fetches took time on the world clock
        assert sheriff.engine.now > record.started_at
        with pytest.raises(UnknownJob):
            sheriff.measurement_server(record.server_name).result(record)

    def test_blocking_wrapper_is_submit_plus_collect(
        self, world, sheriff, es_user, es_peers
    ):
        result = es_user.check_price(_first_product_url(world))
        assert len(result.rows) > 1
        assert es_user.checks_initiated == 1


class TestPipelining:
    def test_concurrent_jobs_overlap_on_the_timeline(
        self, world, sheriff, es_user, es_peers
    ):
        url = _first_product_url(world)
        # the wave's cost on a one-fetch-at-a-time backend: the sum of
        # every fetch's simulated duration
        durations = []
        submit = sheriff.engine.submit

        def submit_recorded(record, tasks, on_done=None):
            durations.extend(task[0] for task in tasks)
            return submit(record, tasks, on_done)

        sheriff.engine.submit = submit_recorded
        start = sheriff.engine.now
        wave = [addon.submit_price_check(url) for addon in (es_user, *es_peers[:1])]
        serial_cost = sum(durations)
        for record in wave:
            sheriff.measurement_server(record.server_name).result(record)
        makespan = sheriff.engine.now - start
        assert 0.0 < makespan < serial_cost

    def test_worker_pool_is_bounded(self, world, sheriff, es_user, es_peers):
        es_user.check_price(_first_product_url(world))
        peaks = [p.peak_busy for p in sheriff.engine._pools.values() if p.peak_busy]
        assert peaks
        assert all(1 < peak <= sheriff.engine.max_workers for peak in peaks)


class TestBatchedPersistence:
    def test_rows_land_as_one_batched_write(self, world, sheriff, es_user, es_peers):
        assert sheriff.db.batched_writes == 0
        result = es_user.check_price(_first_product_url(world))
        assert sheriff.db.batched_writes == 1
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert len(stored) == len(result.rows)
        second = es_user.check_price(_first_product_url(world, domain="geo.example"))
        assert sheriff.db.batched_writes == 2
        assert len(sheriff.db.scan("responses")) == len(result.rows) + len(second.rows)
