"""Two session surfaces, each thing written once (DESIGN.md §11, §12).

The statement verbs exist twice — :class:`repro.engine.session.Session`
where the rows are, :class:`repro.net.client.RemoteVerbs` where requests
are sent from — and the two cannot drift: ``tcp://`` and ``cluster://``
sessions *are* ``RemoteVerbs``' functions, with ``Session``'s signatures.
The statement wire format is one table read by both ends; cluster routing
is one owner function plus one broadcast from the calling thread; and a
key or table that names nothing gets the same answer on all three URLs.
"""

from __future__ import annotations

import inspect
import threading

import pytest

import repro
from repro.cluster import Cluster
from repro.cluster.router import ClusterSession
from repro.engine import EngineConfig
from repro.engine.session import Session
from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    ProtocolError,
    ReproError,
    SchemaError,
    SqlError,
)
from repro.net import DatabaseServer
from repro.net.client import NetworkSession, RemoteVerbs, WireConnection
from repro.net.protocol import REQUEST_OPS, STATEMENT_OPS
from repro.smallbank import PopulationConfig, build_database, get_strategy

#: The statement verbs both surfaces define.  (``execute_prepared`` is per
#: remote backend — ship the text / route it — and the engine session has
#: none: the executor plans against these nine.)
SHARED = (
    "select",
    "select_for_update",
    "lookup_unique",
    "scan",
    "update",
    "identity_update",
    "write",
    "insert",
    "delete",
)


class TestOneDefinition:
    @pytest.mark.parametrize("verb", SHARED)
    def test_remote_sessions_share_the_verb_functions(self, verb):
        assert getattr(NetworkSession, verb) is getattr(RemoteVerbs, verb)
        assert getattr(ClusterSession, verb) is getattr(RemoteVerbs, verb)

    @pytest.mark.parametrize("verb", SHARED)
    def test_signatures_equal_the_engine_sessions(self, verb):
        local = inspect.signature(getattr(Session, verb))
        assert inspect.signature(getattr(NetworkSession, verb)) == local
        assert inspect.signature(getattr(ClusterSession, verb)) == local

    def test_execute_prepared_signature_is_shared_by_the_remote_two(self):
        assert inspect.signature(
            NetworkSession.execute_prepared
        ) == inspect.signature(ClusterSession.execute_prepared)


@pytest.fixture
def server():
    server = DatabaseServer(
        build_database(EngineConfig.postgres(), PopulationConfig(customers=6))
    ).start_in_thread()
    yield server
    server.shutdown()


class TestStatementTable:
    def test_every_statement_op_is_a_request_op_with_a_handler(self):
        assert set(STATEMENT_OPS) == set(SHARED) - {
            "update",
            "identity_update",
        }
        for op, fields, _reply, _locks in STATEMENT_OPS.values():
            assert op in REQUEST_OPS
            assert op in DatabaseServer._HANDLERS
            assert fields[0] == "table"

    @pytest.mark.parametrize(
        "op,fields,missing",
        [
            (op, fields, missing)
            for op, fields, _reply, _locks in STATEMENT_OPS.values()
            for missing in fields
        ],
    )
    def test_a_frame_missing_a_listed_field_is_a_protocol_error(
        self, server, op, fields, missing
    ):
        values = {
            "table": "Saving", "key": 1, "column": "CustomerId", "value": 1,
            "description": "<scan>", "row": {"CustomerId": 1, "Balance": 1.0},
        }
        wire = WireConnection("127.0.0.1", server.port)
        try:
            frame = {name: values[name] for name in fields if name != missing}
            with pytest.raises(ProtocolError, match="missing field"):
                wire.call(op, {"begin": "t", **frame})
            assert wire.call("PING", {})["pong"]  # the wire stays usable
        finally:
            wire.close()

    def test_write_frames_carry_no_kind(self, server, monkeypatch):
        sent = []
        send = WireConnection.send

        def spy(wire, op, args, **one_way):
            sent.append((op, dict(args)))
            send(wire, op, args, **one_way)

        monkeypatch.setattr(WireConnection, "send", spy)
        with repro.connect(f"tcp://127.0.0.1:{server.port}") as conn:
            with conn.transaction("t") as txn:
                assert txn.update(
                    "Saving", 1, {"Balance": 2.0}, kind="materialize-update"
                )
        row = {"CustomerId": 1, "Balance": 2.0}
        assert sent == [
            ("READ", {"table": "Saving", "key": 1, "begin": "t"}),
            ("WRITE", {"table": "Saving", "key": 1, "row": row}),
            ("COMMIT", {}),
        ]


def fanout_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-fanout")]


class TestClusterRouting:
    """Customers 2 and 4 live on shard 0, 1 and 3 on shard 1."""

    def test_statement_update_is_read_plus_write_on_the_owner(self):
        with Cluster(2, customers=4) as cluster, cluster.connect() as conn:
            before = [s.server.stats()["rpcs_total"] for s in cluster.shards]
            with conn.transaction("t") as txn:
                assert txn.update(
                    "Checking", 1, lambda row: {"Balance": row["Balance"] + 1}
                )
            after = [s.server.stats()["rpcs_total"] for s in cluster.shards]
            # BEGIN (the snapshot) + COMMIT on shard 0; READ (its BEGIN
            # riding on it) + WRITE + COMMIT on shard 1.
            assert [a - b for a, b in zip(after, before)] == [2, 3]

    @pytest.mark.parametrize("down", [0, 1])
    @pytest.mark.parametrize(
        "verb,args",
        [("scan", ("Checking",)), ("lookup_unique", ("Saving", "Balance", 1.0))],
    )
    def test_broadcast_with_a_shard_down(self, verb, args, down):
        """Every request that went out has its reply read — the live
        shard's wire goes back to its pool clean — the error raised is
        the first in shard order, and no pool thread is involved."""
        with Cluster(2, customers=4) as cluster, cluster.connect() as conn:
            session = conn.session()
            session.begin("t")
            wires = [session._branches[s]._wire for s in (0, 1)]
            cluster.crash_shard(down)
            # Saving.Balance is no unique column: the live shard answers
            # SchemaError, the crashed one not at all.
            expected = (
                ConnectionClosed if verb == "scan" or down == 0 else SchemaError
            )
            with pytest.raises(expected):
                getattr(session, verb)(*args)
            assert not wires[1 - down].awaiting_reply
            session.close()
            assert conn.shards[1 - down]._idle == [wires[1 - down]]
            assert conn.shards[down]._idle == []
            assert fanout_threads() == []

    def test_broadcast_lookup_takes_the_first_hit_in_shard_order(self):
        class Branch:
            def __init__(self, found):
                self.found = found

            def _start_statement(self, verb, table, *args):
                return lambda: self.found

        with Cluster(2, customers=4) as cluster, cluster.connect() as conn:
            session = conn.session()
            session._branches = {0: Branch(None), 1: Branch(["k", {"a": 1}])}
            assert session.lookup_unique("Saving", "Balance", 1.0) == ("k", {"a": 1})
            session._branches = {}


# ----------------------------------------------------------------------
# Parity: a key or a table that names nothing
# ----------------------------------------------------------------------
@pytest.fixture(params=["local", "tcp", "cluster"])
def conn(request):
    population = PopulationConfig(customers=6)
    if request.param == "cluster":
        with Cluster(2, customers=6) as cluster, cluster.connect() as conn:
            yield conn
        return
    db = build_database(EngineConfig.postgres(), population)
    if request.param == "local":
        with repro.connect("local://", database=db) as conn:
            yield conn
        return
    server = DatabaseServer(db).start_in_thread()
    try:
        with repro.connect(f"tcp://127.0.0.1:{server.port}") as conn:
            yield conn
    finally:
        server.shutdown()


def in_txn(statement):
    """``statement(session)`` inside a transaction of its own."""

    def probe(session):
        session.begin("probe")
        try:
            return statement(session)
        finally:
            session.rollback()

    return probe


def outcome(conn, probe):
    """What ``probe(session)`` gives: its value, or the class of the
    ``ReproError`` it raised (anything else escapes and fails the test)."""
    session = conn.session()
    try:
        return probe(session)
    except ReproError as exc:
        return type(exc)
    finally:
        session.close()


PROBES = {
    "select-unknown-name": (
        in_txn(lambda s: s.select("Account", "nobody")), None),
    "lookup-unknown-name": (
        in_txn(lambda s: s.lookup_unique("Account", "Name", "nobody")), None),
    "lookup-non-numeric-customer": (
        in_txn(lambda s: s.lookup_unique("Account", "CustomerId", "abc")), None),
    "select-unknown-table": (
        in_txn(lambda s: s.select("NoSuchTable", 1)), SchemaError),
    "balance-unknown-customer": (
        lambda s: get_strategy("base-si").transactions().run(
            s, "Balance", {"N": "nobody"}
        ),
        ApplicationRollback,
    ),
}


@pytest.mark.parametrize("name", PROBES)
def test_nothing_there_is_the_same_answer_on_every_url(conn, name):
    probe, expected = PROBES[name]
    assert outcome(conn, probe) is expected


def test_readme_quickstart_runs_unchanged(conn):
    with conn.transaction("deposit") as txn:
        row = txn.select("Checking", 1)
        txn.update("Checking", 1, {"Balance": row["Balance"] + 10})
    with conn.transaction("check") as txn:
        assert txn.select("Checking", 1)["Balance"] == row["Balance"] + 10


def test_cluster_refuses_to_write_a_row_no_read_would_find():
    with Cluster(2, customers=4) as cluster, cluster.connect() as conn:
        row = {"Name": "nobody", "CustomerId": 1}
        for statement in (
            lambda s: s.write("Account", "nobody", row),
            lambda s: s.insert("Account", row),
            lambda s: s.insert("Conflict", {"Value": 0}),  # no partition value
            lambda s: s.delete("Account", "nobody"),
        ):
            assert outcome(conn, in_txn(statement)) is SqlError
