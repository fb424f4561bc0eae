"""The typed $heriff error hierarchy.

Every failure the back-end can report is a :class:`SheriffError`, so
callers branch on the *kind* of failure instead of string-matching
messages::

    try:
        result = addon.check_price(url)
    except AdmissionDenied:
        ...  # whitelist / PII blacklist said no — nothing was fetched
    except PriceCheckFailed as exc:
        ...  # the job was reported failed; exc.reason says why
    except SheriffError:
        ...  # anything else the system reports

Design rules:

* every class also subclasses the built-in exception its call sites
  historically raised (``KeyError``, ``ValueError``, ``RuntimeError``,
  ``ConnectionError``), so existing ``except`` clauses keep working;
* errors carry structured fields (``job_id``, ``url``, ``reason``, …)
  in addition to the formatted message;
* legacy names are aliases of the canonical classes
  (``RequestRejected`` → :class:`AdmissionDenied`,
  ``RetryBudgetExhausted`` → :class:`RetryExhausted`), so
  ``isinstance`` checks agree in both directions.
"""

from __future__ import annotations


class SheriffError(Exception):
    """Base class of every failure the $heriff back-end reports."""


# -- admission (Sect. 2.3: whitelist + PII blacklist) -----------------------

class AdmissionDenied(SheriffError):
    """The price check request was refused (whitelist / blacklist).

    Nothing is fetched for a denied request; the Coordinator logs it
    for manual inspection instead.
    """

    def __init__(self, url: str, reason: str) -> None:
        super().__init__(f"request for {url} rejected: {reason}")
        self.url = url
        self.reason = reason


#: legacy name, kept importable from :mod:`repro.core.coordinator`
RequestRejected = AdmissionDenied


class ConsentRequired(SheriffError, RuntimeError):
    """An add-on feature was used without the user's explicit consent."""


# -- dispatch (Sect. 3.4) ---------------------------------------------------

class NoServerAvailable(SheriffError, RuntimeError):
    """No online Measurement server can take the job."""


class DuplicateServer(SheriffError, ValueError):
    """A Measurement server name was registered twice."""


class UnknownServer(SheriffError, KeyError):
    """The named Measurement server is not in the server list."""


# -- the job lifecycle ------------------------------------------------------

class UnknownJob(SheriffError, KeyError):
    """The job ID (or record) does not name a live job.

    Raised by ``result`` once the job's result was handed out (the job
    is gone) and by the Coordinator for IDs it never minted.
    """


class RetryExhausted(SheriffError, RuntimeError):
    """A job burned through its per-job retry budget without landing."""

    def __init__(self, job_id: str, attempts: int) -> None:
        super().__init__(
            f"job {job_id!r} failed after {attempts} assignment attempts"
        )
        self.job_id = job_id
        self.attempts = attempts


#: legacy name, kept importable from :mod:`repro.core.coordinator`
RetryBudgetExhausted = RetryExhausted


class PriceCheckFailed(SheriffError, RuntimeError):
    """The price check ended in an *explicit* failure report.

    Raised after the system exhausted its corrective measures — retry
    budget, dead-server failover, quorum degradation — so the user sees
    an error page instead of a silent hang or a one-point comparison.
    """

    def __init__(self, job_id: str, reason: str) -> None:
        super().__init__(f"price check {job_id!r} failed: {reason}")
        self.job_id = job_id
        self.reason = reason


class PriceSelectionError(SheriffError, ValueError):
    """No plausible price element could be selected on the page."""


# -- the measurement-tier job queue (admission control) ---------------------

class QueueSaturated(SheriffError, RuntimeError):
    """The measurement tier shed the job: its dispatch queue is full.

    This is the *backpressure* signal of the queue tier — the add-on
    (or any other client) should wait ``retry_after`` simulated seconds
    before resubmitting.  Nothing was fetched for a shed job and its
    record is failed at the Coordinator, so accounting never leaks.
    """

    def __init__(self, job_id: str, depth: int, limit: int,
                 retry_after: float) -> None:
        super().__init__(
            f"job {job_id!r} shed: queue depth {depth} at limit {limit}; "
            f"retry after {retry_after:.2f}s"
        )
        self.job_id = job_id
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


class InvalidConfig(SheriffError, ValueError):
    """A run configuration has unknown keys or out-of-range values."""


# -- infrastructure ---------------------------------------------------------

class UnknownTable(SheriffError, KeyError):
    """A query named a table the Database server does not host."""


class StateFetchFailed(SheriffError, ConnectionError):
    """The doppelganger state fetch failed after its retry budget."""


class ConfigurationError(SheriffError, RuntimeError):
    """A component was asked for a subsystem it was built without."""


__all__ = [
    "SheriffError",
    "AdmissionDenied",
    "RequestRejected",
    "ConsentRequired",
    "NoServerAvailable",
    "DuplicateServer",
    "UnknownServer",
    "UnknownJob",
    "RetryExhausted",
    "RetryBudgetExhausted",
    "PriceCheckFailed",
    "PriceSelectionError",
    "QueueSaturated",
    "InvalidConfig",
    "UnknownTable",
    "StateFetchFailed",
    "ConfigurationError",
]
