"""The job lifecycle: submit → poll → result.

``MeasurementServer.submit`` returns a :class:`JobHandle`; ``poll``
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
        handle = es_user.submit_price_check(_first_product_url(world))
        assert handle.job_id in sheriff.coordinator.jobs
        assert handle.state == "running"
        assert not handle.finished
        assert handle.rows_arrived < handle.total_rows
        assert handle.service_seconds > 0.0
        # the fan-out is already decided: the result rows exist, they
        # just have not landed on the simulated timeline yet
        assert handle.total_rows > 1

    def test_poll_delivers_progressive_batches(self, world, sheriff, es_user, es_peers):
        handle = es_user.submit_price_check(_first_product_url(world))
        server = sheriff.measurement_server(handle.server_name)
        delivered = []
        finished = False
        polls = 0
        while not finished:
            batch, finished = server.poll(handle)
            delivered.extend(batch)
            polls += 1
            assert len(batch) <= 8
            assert polls < 100
        assert len(delivered) == handle.total_rows
        assert delivered == list(handle.result.rows)
        # a finished job is forgotten: polling again is an error
        with pytest.raises(UnknownJob):
            server.poll(handle)

    def test_result_drives_to_terminal_state(self, world, sheriff, es_user, es_peers):
        handle = es_user.submit_price_check(_first_product_url(world))
        result = es_user.collect(handle)
        assert handle.state == "done"
        assert handle.finished
        assert handle.rows_arrived == len(result.rows)
        assert handle.finished_at is not None
        assert handle.finished_at >= handle.submitted_at
        # time passed on the engine's loop, not the world clock
        assert sheriff.engine.now > 0.0
        with pytest.raises(UnknownJob):
            sheriff.measurement_server(handle.server_name).result(handle)

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
        start = sheriff.engine.now
        wave = [addon.submit_price_check(url) for addon in (es_user, *es_peers[:1])]
        serial_cost = sum(h.service_seconds for h in wave)
        for handle in wave:
            sheriff.measurement_server(handle.server_name).result(handle)
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
