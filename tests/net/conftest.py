"""Fixtures shared by the socket-transport suites."""

import logging
import threading

import pytest


class Quiet:
    """What a well-behaved transport leaves behind: no thread that died
    with a traceback, nothing on stderr, no WARNING+ log record."""

    def __init__(self, capfd, caplog):
        self.thread_errors = []
        self._capfd = capfd
        self._caplog = caplog

    def check(self):
        assert self.thread_errors == []
        assert self._capfd.readouterr().err == ""
        assert [r for r in self._caplog.records if r.levelno >= logging.WARNING] == []


@pytest.fixture
def quiet(capfd, caplog, monkeypatch):
    observed = Quiet(capfd, caplog)
    monkeypatch.setattr(threading, "excepthook", observed.thread_errors.append)
    caplog.set_level(logging.DEBUG)
    return observed
