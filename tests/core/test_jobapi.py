"""Job entry points: where a price check's record goes.

``submit → poll → result`` is offered by two entry points: the queued
measurement tier when the deployment runs one, else the Measurement
server that owns the job.  ``PriceSheriff._job_entrypoint`` picks it by
the record's server name; the add-on submits and collects through it.
"""

from repro.core.sheriff import PriceSheriff

from .conftest import SMALL_IPC_SITES


def _first_product_url(world, domain="uniform.example"):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[0].product_id)


class TestSheriffJobsFacade:
    """Routing by deployment configuration, through
    ``PriceSheriff._job_entrypoint``."""

    def test_routes_direct_deployment_to_owning_server(
        self, world, sheriff, es_user, es_peers
    ):
        record = es_user.submit_price_check(_first_product_url(world))
        entry = sheriff._job_entrypoint(record.server_name)
        assert entry is sheriff.measurement_server(record.server_name)
        rows = list(record.result.rows)

        delivered = []
        finished = False
        while not finished:
            batch, finished = entry.poll(record)
            delivered.extend(batch)
        assert delivered == rows
        assert record.result is None  # the finishing poll dropped it

    def test_result_and_gather_direct(self, world, sheriff, es_user, es_peers):
        record = es_user.submit_price_check(_first_product_url(world))
        result = sheriff._job_entrypoint(record.server_name).result(record)
        assert result.rows
        stored = sheriff.db.sp_responses_for_job(record.job_id)
        assert len(stored) == len(result.rows)

    def test_routes_queued_deployment_through_the_tier(self, world):
        sheriff = PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            job_queue=True,
        )
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        record = addon.submit_price_check(_first_product_url(world))
        assert sheriff._job_entrypoint(record.server_name) is sheriff.job_queue
        result = sheriff.job_queue.result(record)
        assert result.rows
        stored = sheriff.db.sp_responses_for_job(record.job_id)
        assert len(stored) == len(result.rows)
