"""Tests for progressive result delivery and the PII audit."""

import pytest

from repro.core.database import DatabaseServer
from repro.core.pii_audit import run_pii_audit
from repro.core.whitelist import Whitelist
from repro.storage import ShardedDatabase


def product_url(world, domain="uniform.example", index=0):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[index].product_id)


class TestProgressiveDelivery:
    """Sect. 3.2: AJAX polls until the 'request finish' response."""

    def _start_job(self, world, sheriff, es_user):
        from repro.core.measurement import PriceCheckJob

        url = product_url(world)
        response = es_user.browser.visit(url)
        tags_path, _ = es_user.build_selection(response.html)
        ticket, ppcs = sheriff.coordinator.new_request(
            es_user.peer_id, url, es_user.browser.location
        )
        job = PriceCheckJob(
            job_id=ticket.job_id, url=url, tags_path=tags_path,
            requested_currency="EUR", initiator_peer_id=es_user.peer_id,
            initiator_html=response.html,
            initiator_location=es_user.browser.location,
            initiator_os="Linux", initiator_browser="Firefox",
            ppc_ids=ppcs,
        )
        return sheriff.measurement_server(ticket.server_name), job

    def test_polling_until_finish(self, world, sheriff, es_user, es_peers):
        server, job = self._start_job(world, sheriff, es_user)
        handle = server.submit(job)
        all_rows = []
        polls = 0
        finished = False
        while not finished:
            batch, finished = server.poll(handle)
            all_rows.extend(batch)
            polls += 1
            assert polls < 100  # must terminate
        assert polls >= 2  # rows arrive over multiple AJAX polls
        assert len(all_rows) >= 9  # You + IPCs (+ PPCs)

    def test_finished_job_gone(self, world, sheriff, es_user, es_peers):
        server, job = self._start_job(world, sheriff, es_user)
        handle = server.submit(job)
        finished = False
        while not finished:
            _, finished = server.poll(handle)
        with pytest.raises(KeyError):
            server.poll(handle)

    def test_progressive_matches_blocking(self, world, sheriff, es_user,
                                          es_peers):
        server, job = self._start_job(world, sheriff, es_user)
        handle = server.submit(job)
        rows = []
        finished = False
        while not finished:
            batch, finished = server.poll(handle)
            rows.extend(batch)
        kinds = {r.kind for r in rows}
        assert "You" in kinds and "IPC" in kinds


class TestPiiAudit:
    def _db_with(self, url=None, original_text=None):
        db = DatabaseServer()
        db.sp_record_job("j1", "u1", url or "http://shop.com/product/p-1",
                         "shop.com", 0.0,
                         [{"proxy_id": "ipc-0",
                           "original_text": original_text or "EUR100"}])
        return db

    def test_clean_database(self):
        report = run_pii_audit(self._db_with())
        assert report.clean
        assert report.deleted_rows == 0
        assert "clean" in report.render()

    def test_email_in_stored_text_found_and_deleted(self):
        db = self._db_with(original_text="contact jane.doe@example.com")
        report = run_pii_audit(db)
        assert not report.clean
        assert report.findings[0].kind == "email"
        assert report.deleted_rows == 1
        assert db.count("responses") == 0
        # the request row was fine and survives
        assert db.count("requests") == 1

    def test_account_url_found_and_blacklist_updated(self):
        db = self._db_with(url="http://shop.com/account/jane")
        whitelist = Whitelist(["shop.com"], pii_patterns=())
        report = run_pii_audit(db, whitelist)
        assert report.findings[0].kind == "account-url"
        assert db.count("requests") == 0
        assert report.new_blacklist_patterns
        assert whitelist.url_pii_blacklisted("/account/other")

    def test_phone_number_detected(self):
        db = self._db_with(original_text="+34 600 123 456")
        report = run_pii_audit(db)
        assert report.findings[0].kind == "phone"

    def test_delete_false_keeps_rows(self):
        db = self._db_with(original_text="a@b.com")
        report = run_pii_audit(db, delete=False)
        assert not report.clean
        assert report.deleted_rows == 0
        assert db.count("responses") == 1

    def test_render_lists_findings(self):
        db = self._db_with(original_text="a@b.com")
        out = run_pii_audit(db).render()
        assert "email" in out
        assert "deleted" in out

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_sharded_audit_deletes_only_what_it_found(self, backend):
        """Every shard numbers its rows from 1: a found row is deleted on
        its own shard, not wherever the same ``_id`` occurs."""
        db = ShardedDatabase(n_shards=2, backend=backend)
        other = next(
            domain for domain in (f"shop-{i}.com" for i in range(100))
            if db.shard_for(domain) != db.shard_for("shop.com")
        )
        db.sp_record_job("job-1", "u1", "http://shop.com/p?mail=jane@example.com",
                         "shop.com", 0.0, [{"proxy_id": "ipc-0", "original_text": "EUR100"}])
        db.sp_record_job("job-2", "u2", f"http://{other}/p", other, 1.0,
                         [{"proxy_id": "ipc-0", "original_text": "+34 600 123 456"}])
        report = run_pii_audit(db)
        assert [(f.table, f.row_id, f.kind) for f in report.findings] == [
            ("requests", 1, "email"), ("responses", 2, "phone"),
        ]
        assert report.deleted_rows == 2
        assert [r["job_id"] for r in db.scan("requests")] == ["job-2"]
        assert [r["job_id"] for r in db.scan("responses")] == ["job-1"]
