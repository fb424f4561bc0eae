"""The typed SheriffError hierarchy (errors.py).

Two contracts: every failure the back-end reports is a
:class:`SheriffError` subclass carrying structured fields, and each
class also subclasses the built-in its call sites historically raised
so pre-existing ``except KeyError`` / ``except ValueError`` clauses
keep working.
"""

import pytest

from repro.core import errors
from repro.core.errors import (
    AdmissionDenied,
    ConfigurationError,
    ConsentRequired,
    DuplicateServer,
    NoServerAvailable,
    PriceCheckFailed,
    PriceSelectionError,
    RequestRejected,
    RetryBudgetExhausted,
    RetryExhausted,
    SheriffError,
    StateFetchFailed,
    UnknownJob,
    UnknownServer,
    UnknownTable,
)


class TestHierarchy:
    def test_every_exported_error_is_a_sheriff_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, SheriffError), name

    @pytest.mark.parametrize(
        "cls, legacy",
        [
            (ConsentRequired, RuntimeError),
            (NoServerAvailable, RuntimeError),
            (DuplicateServer, ValueError),
            (UnknownServer, KeyError),
            (UnknownJob, KeyError),
            (RetryExhausted, RuntimeError),
            (PriceCheckFailed, RuntimeError),
            (PriceSelectionError, ValueError),
            (UnknownTable, KeyError),
            (StateFetchFailed, ConnectionError),
            (ConfigurationError, RuntimeError),
        ],
    )
    def test_dual_base_keeps_legacy_except_clauses_working(self, cls, legacy):
        assert issubclass(cls, legacy)
        assert issubclass(cls, SheriffError)

    def test_legacy_aliases_are_the_canonical_classes(self):
        assert RequestRejected is AdmissionDenied
        assert RetryBudgetExhausted is RetryExhausted

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(SheriffError):
            raise PriceCheckFailed("job-1", "quorum not met (1/3)")
        with pytest.raises(SheriffError):
            raise UnknownJob("job-1")


class TestStructuredFields:
    def test_admission_denied_carries_url_and_reason(self):
        exc = AdmissionDenied("http://shady.example/p1", "domain not whitelisted")
        assert exc.url == "http://shady.example/p1"
        assert exc.reason == "domain not whitelisted"
        assert "shady.example" in str(exc)

    def test_retry_exhausted_carries_job_and_attempts(self):
        exc = RetryExhausted("job-7", attempts=4)
        assert exc.job_id == "job-7"
        assert exc.attempts == 4
        assert "4" in str(exc)

    def test_price_check_failed_carries_reason(self):
        exc = PriceCheckFailed("job-3", "no server available")
        assert exc.job_id == "job-3"
        assert exc.reason == "no server available"


class TestRaisedAtTheOldCallSites:
    """The refactored modules raise the typed classes, not ad-hoc builtins."""

    def test_dispatch_unknown_server(self):
        from repro.core.dispatch import RequestDistributor

        distributor = RequestDistributor()
        with pytest.raises(UnknownServer):
            distributor.server("no-such-server")
        # the dual base: a legacy caller's except clause still fires
        with pytest.raises(KeyError):
            distributor.server("no-such-server")

    def test_database_unknown_table(self):
        from repro.core.database import DatabaseServer

        with pytest.raises(UnknownTable):
            DatabaseServer().count("no_such_table")

    def test_measurement_unknown_job(self, world, sheriff, es_user):
        store = world.internet.site("uniform.example")
        record = es_user.submit_price_check(
            store.product_url(store.catalog.products[0].product_id)
        )
        es_user.collect(record)
        server = sheriff.measurement_server(record.server_name)
        with pytest.raises(UnknownJob):
            server.result(record)
