"""Tests for result delivery and the PII audit."""

import pytest

from repro.core.database import DatabaseServer
from repro.core.pii_audit import run_pii_audit
from repro.core.whitelist import Whitelist


def product_url(world, domain="uniform.example", index=0):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[index].product_id)


class TestProgressiveDelivery:
    """Sect. 3.2's 'request finish': a job's rows are handed out once."""

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

    def test_finished_job_gone(self, world, sheriff, es_user, es_peers):
        server, job = self._start_job(world, sheriff, es_user)
        handle = server.submit(job)
        assert server.result(handle).rows
        with pytest.raises(KeyError):
            server.result(handle)


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

    @pytest.mark.parametrize("url, pattern", [
        ("http://shop.com/account", "/account"),
        ("http://shop.com/jane.doe@mail.com", "/jane.doe@mail.com"),
        # the blacklist matches lowercased paths, so a pattern is lowercase
        ("http://shop.com/Account/Jane", "/account"),
    ])
    def test_a_one_segment_url_blacklists_its_segment(self, url, pattern):
        """A flagged URL with one path segment blacklists that segment,
        not ``/``, which would refuse every later check."""
        whitelist = Whitelist(["shop.com"], pii_patterns=())
        report = run_pii_audit(self._db_with(url=url), whitelist)
        assert report.new_blacklist_patterns == [pattern]
        assert whitelist.url_pii_blacklisted(pattern + "/x")
        assert not whitelist.url_pii_blacklisted("/product/p-1")
