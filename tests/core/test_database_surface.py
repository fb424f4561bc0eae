"""One Database surface.

The verbs a remote caller may send (``DB_RPC_METHODS``) are exactly the
stored procedures :class:`DatabaseClient` speaks, and the single server
and the shard router answer each of them with the same parameters — so
a Measurement server writes and reads through any of the three without
knowing which one it holds.
"""

import inspect

import pytest

from repro.core.database import (
    DB_RPC_METHODS,
    DatabaseClient,
    DatabaseServer,
    database_rpc_handler,
)
from repro.storage import ShardedDatabase

PROCEDURES = sorted(set(DB_RPC_METHODS) - {"ping"})


def _parameters(method):
    """Names, kinds and defaults of a method's parameters, annotations
    ignored (the router leaves some of them off)."""
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(method).parameters.values()
    ]


def test_the_rpc_table_is_the_clients_procedures():
    public = {
        name for name, _ in inspect.getmembers(DatabaseClient, inspect.isfunction)
        if not name.startswith("_")
    }
    assert len(set(DB_RPC_METHODS)) == len(DB_RPC_METHODS)
    assert set(PROCEDURES) == public - {"connection", "ping"}
    assert DB_RPC_METHODS == (
        "ping", "sp_record_request", "sp_record_responses", "sp_record_job",
        "sp_responses_for_job", "count", "shard_last_writes",
    )


@pytest.mark.parametrize("server", [DatabaseServer, ShardedDatabase],
                         ids=["single", "sharded"])
@pytest.mark.parametrize("method", PROCEDURES)
def test_both_servers_answer_each_procedure_alike(server, method):
    assert _parameters(getattr(server, method)) \
        == _parameters(getattr(DatabaseClient, method))


@pytest.mark.parametrize("method", ["sp_record_response", "scan", "delete_rows"])
def test_the_handler_refuses_what_the_table_does_not_name(method):
    db = DatabaseServer()
    handle = database_rpc_handler(db)
    with pytest.raises(KeyError, match=method):
        handle(method, {"job_id": "j1", "proxy_id": "ipc-0"})
    assert db.count("responses") == 0
    assert db.query_count == 0
