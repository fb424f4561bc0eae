"""Edge-case tests for the Measurement server."""

import pytest

from repro.core.tagspath import TagsPath
from repro.web.internet import ContentSite


def product_url(world, domain="uniform.example", index=0):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[index].product_id)


class TestProxyFailures:
    def test_offline_ppc_skipped(self, world, sheriff, es_user, es_peers):
        """A peer that left mid-request just means one fewer point."""
        gone = es_peers[0]
        sheriff.overlay.set_online(gone.peer_id, False)
        result = es_user.check_price(product_url(world))
        assert all(r.proxy_id != gone.peer_id for r in result.rows)
        assert result.valid_rows()

    def test_slow_ipc_timed_out(self, world, sheriff, es_user, es_peers):
        """IPCs above the slowdown budget model the 2-minute kill."""
        lagger = sheriff.ipcs[0]
        lagger.slowdown = 10.0
        try:
            result = es_user.check_price(product_url(world))
            assert all(r.proxy_id != lagger.ipc_id for r in result.rows)
        finally:
            lagger.slowdown = 1.0

    def test_ppc_error_reply_skipped(self, world, sheriff, es_user, es_peers):
        broken = es_peers[1]
        sheriff.overlay.get(broken.peer_id).handler = (
            lambda message: {"error": "boom"}
        )
        result = es_user.check_price(product_url(world))
        assert all(r.proxy_id != broken.peer_id for r in result.rows)


class TestExtractionFailures:
    def test_price_not_found_yields_error_row(self, world, sheriff, es_user):
        """A Tags Path that matches nothing produces an error row, not a
        crash — the job still completes."""
        from repro.core.measurement import PriceCheckJob

        server = sheriff.measurement_server("ms-0")
        url = product_url(world)
        response = es_user.browser.visit(url)
        ticket, ppcs = sheriff.coordinator.new_request(
            es_user.peer_id, url, es_user.browser.location
        )
        bogus_path = TagsPath(entries=("html", "body"), target="span.nope")
        job = PriceCheckJob(
            job_id=ticket.job_id, url=url, tags_path=bogus_path,
            requested_currency="EUR", initiator_peer_id=es_user.peer_id,
            initiator_html=response.html,
            initiator_location=es_user.browser.location,
            initiator_os="Linux", initiator_browser="Firefox",
            ppc_ids=ppcs,
        )
        result = server.result(server.submit(job))
        assert result.rows
        assert all(r.error == "price not found on page" for r in result.rows)
        assert result.valid_rows() == []
        assert sheriff.coordinator.pending_jobs() == 0

    def test_job_counter_released_on_selection_failure(
        self, world, sheriff, es_user
    ):
        world.internet.register(ContentSite("nopage.example"))
        sheriff.whitelist.add("nopage.example")
        from repro.core.addon import PriceSelectionError

        with pytest.raises(PriceSelectionError):
            es_user.check_price("http://nopage.example/product/x")
        assert sheriff.coordinator.pending_jobs() == 0


class TestResultConsistency:
    def test_all_rows_same_job(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world))
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert {r["job_id"] for r in stored} == {result.job_id}

    def test_diffstore_restores_proxy_pages(self, world, sheriff, es_user,
                                            es_peers):
        result = es_user.check_price(product_url(world))
        ipc_row = next(r for r in result.rows if r.kind == "IPC")
        restored = sheriff.diffstore.restore(result.job_id, ipc_row.proxy_id)
        assert "<html>" in restored
        assert result.domain in restored

    def test_simultaneous_fetches(self, world, sheriff, es_user, es_peers):
        """All measurement points observe the same simulated instant —
        the paper's temporal-variation control."""
        before = world.clock.now
        result = es_user.check_price(product_url(world))
        assert result.time == before


class TestHostilePeerPage:
    @staticmethod
    def _check_with_price_text(world, sheriff, user, peer, text):
        """One check in which ``peer`` answers with the honest page, every
        price element refilled with ``text``; returns (result, its row)."""
        import re

        store = world.internet.site("uniform.example")
        price_span = re.compile(f'(<span class="{store.price_class}">)[^<]*(</span>)')
        endpoint = sheriff.overlay.get(peer.peer_id)
        honest_handler = endpoint.handler

        def refilled(message):
            reply = honest_handler(message)
            reply["html"] = price_span.sub(
                lambda m: m.group(1) + text + m.group(2), reply["html"]
            )
            return reply

        endpoint.handler = refilled
        result = user.check_price(product_url(world))
        return result, next(r for r in result.rows if r.proxy_id == peer.peer_id)

    def test_oversized_price_node_is_capped_in_every_stored_field(
        self, world, sheriff, es_user, es_peers
    ):
        """A PPC whose price element holds 1 MB of text used to land it in
        the database twice: as ``original_text`` and again inside the
        ``error`` message that quoted it."""
        from repro.core.measurement import PRICE_TEXT_MAX

        result, row = self._check_with_price_text(
            world, sheriff, es_user, es_peers[0], "9" * 1_000_000
        )
        assert row.error == "price text too long"
        assert row.original_text == "9" * PRICE_TEXT_MAX
        assert not row.ok
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert len(stored) == len(result.rows)
        for record in stored:
            for field, value in record.items():
                if isinstance(value, str):
                    assert len(value) <= PRICE_TEXT_MAX, (record["proxy_id"], field)
        # everyone else's row is what it would have been
        assert len(result.valid_rows()) == len(result.rows) - 1

    def test_refused_text_is_quoted_up_to_a_bound(self, world, sheriff, es_user,
                                                  es_peers):
        """Text under the cap still reaches the detector, whose message
        quotes a prefix of it — the row stays under the cap as a whole."""
        from repro.core.measurement import PRICE_TEXT_MAX

        _, row = self._check_with_price_text(
            world, sheriff, es_user, es_peers[0], "7" * PRICE_TEXT_MAX
        )
        assert row.original_text == "7" * PRICE_TEXT_MAX
        assert row.error.startswith("selection longer than 25 characters: '7777")
        assert len(row.error) < PRICE_TEXT_MAX


class TestHostilePeerReply:
    """``_valid_ppc_reply`` is the last check before a volunteer's reply
    becomes a stored row: presence of the fields is not enough."""

    @pytest.mark.parametrize(
        "forged",
        [
            {"html": 123},
            {"html": None},
            {"country": "X" * 1_000_000},
            {"country": {"a": [1, 2]}},
            {"used_doppelganger": "yes" * 100_000},
        ],
        ids=["html-int", "html-none", "country-1mb", "country-dict",
             "doppel-str"],
    )
    def test_bad_field_is_ppc_corrupt(
        self, world, sheriff, es_user, es_peers, forged
    ):
        from repro.core.measurement import PRICE_TEXT_MAX

        hostile = es_peers[0]
        endpoint = sheriff.overlay.get(hostile.peer_id)
        honest_handler = endpoint.handler
        endpoint.handler = lambda message: {**honest_handler(message), **forged}

        def corrupt_total():
            return sum(
                server.stats.ppc_corrupt
                for server in sheriff.measurement_servers.values()
            )

        before = corrupt_total()
        result = es_user.check_price(product_url(world))

        assert corrupt_total() == before + 1
        assert all(r.proxy_id != hostile.peer_id for r in result.rows)
        assert any(r.kind == "PPC" for r in result.rows)
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert len(stored) == len(result.rows)
        for record in stored:
            for field, value in record.items():
                assert not isinstance(value, (dict, list, tuple, set)), (
                    record["proxy_id"], field)
                if isinstance(value, str):
                    assert len(value) <= PRICE_TEXT_MAX, (record["proxy_id"], field)
