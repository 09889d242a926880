"""2PC decisions are one-way frames (DESIGN.md §11, §12).

A cross-shard commit returns to its client once ``DecisionLog.record``
holds the decision: the coordinator writes ``COMMIT_2PC`` /
``ABORT_2PC`` to each shard marked ``"noreply"``, and the shard applies
it in its connection's order, answers nothing and counts a decision it
refused (``decisions_refused`` in ``STATS``).  ``flush()`` settles: one
PING per idle wire, whose reply proves every earlier frame on that wire
was applied.  (``net-dup-decision`` — the frame written twice, applied
once — is ``test_cluster_fanout.py::TestConcurrent2pc``.)
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.cluster import Cluster
from repro.engine import EngineConfig
from repro.errors import ApplicationRollback, ConnectionClosed
from repro.net import DatabaseServer
from repro.net.client import NetworkSession
from repro.net.protocol import FrameDecoder, encode_request
from repro.smallbank import PopulationConfig, build_database, customer_name, get_strategy

PING = encode_request("PING", {})
#: Customer 1 lives on shard 1, customer 2 on shard 0.
CROSS = {"N1": customer_name(1), "N2": customer_name(2)}


def one_way(op, gtid):
    return encode_request(op, {"gtid": gtid, "noreply": True})


@pytest.fixture
def server():
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=4))
    server = DatabaseServer(db).start_in_thread()
    yield server
    server.shutdown()


def replies_to(server, segments):
    """Write each of ``segments`` on one fresh socket, a pause between,
    then every reply the server sends until it goes quiet."""
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    decoder, replies = FrameDecoder(), []
    try:
        for segment in segments:
            raw.sendall(segment)
            time.sleep(0.01)
        raw.settimeout(0.2)
        try:
            while data := raw.recv(65536):
                replies.extend(decoder.feed(data))
        except socket.timeout:
            pass
    finally:
        raw.close()
    return replies


class TestServer:
    @pytest.mark.parametrize(
        "segments",
        [
            [one_way("ABORT_2PC", "g-none"), PING],  # each read whole
            [one_way("ABORT_2PC", "g-none") + PING],  # one segment
        ],
        ids=["one-frame-path", "one-segment"],
    )
    def test_a_decision_and_the_next_request_get_exactly_one_reply(
        self, server, segments
    ):
        served = server.stats()["rpcs_total"]
        assert replies_to(server, segments) == [{"pong": True, "ok": True}]
        stats = server.stats()
        assert stats["rpcs_total"] - served == 2  # a decision is served
        assert stats["decisions_refused"] == 0

    @pytest.mark.parametrize("glued", [False, True], ids=["alone", "one-segment"])
    def test_a_refused_decision_is_counted_and_gets_no_reply(self, server, glued):
        refused = one_way("COMMIT_2PC", "never-prepared")
        segments = [refused + PING] if glued else [refused, PING]
        assert replies_to(server, segments) == [{"pong": True, "ok": True}]
        assert server.stats()["decisions_refused"] == 1


@pytest.fixture
def cluster():
    with Cluster(2, customers=4) as cluster:
        yield cluster


class TestCoordinator:
    def test_the_decision_is_logged_before_any_frame_is_written(
        self, cluster, monkeypatch
    ):
        """Commits (a split program, a statement-by-statement transfer)
        and an abort (the second part's business rollback): every frame
        leaves after its decision is on the log."""
        txns = get_strategy("base-si").transactions()
        with cluster.connect() as conn:
            logged = []
            send = NetworkSession.send_one_way

            def spy(session, op, args):
                logged.append((op, conn.coordinator.log.decision_for(args["gtid"])))
                send(session, op, args)

            monkeypatch.setattr(NetworkSession, "send_one_way", spy)
            session = conn.session()
            try:
                txns.run(session, "Amalgamate", CROSS)
                session.begin("Transfer")
                session.update("Checking", 1, {"Balance": 1.0})
                session.update("Checking", 2, {"Balance": 2.0})
                session.commit()
                with pytest.raises(ApplicationRollback):
                    txns.run(session, "Amalgamate", {"N1": customer_name(1), "N2": "cust0000098"})
            finally:
                session.close()
        assert logged == [("COMMIT_2PC", "commit")] * 4 + [("ABORT_2PC", "abort")]

    def test_a_send_that_fails_after_the_log_write_fails_nobody(
        self, cluster, monkeypatch
    ):
        """The transaction is committed once its decision is logged: a
        lost frame leaves its shard prepared, the program returns, and
        the resolver's sweep delivers it."""
        txns = get_strategy("base-si").transactions()
        with cluster.connect() as conn:
            send = NetworkSession.send_one_way

            def lose_shard_1(session, op, args):
                if session._wire.sock.getpeername()[1] == cluster.addresses[1][1]:
                    raise ConnectionClosed("shard 1 went away")
                send(session, op, args)

            monkeypatch.setattr(NetworkSession, "send_one_way", lose_shard_1)
            session = conn.session()
            try:
                before = txns.run(session, "Balance", {"N": customer_name(1)})
                txns.run(session, "Amalgamate", CROSS)
                gtid = session.gtid
            finally:
                session.close()
            monkeypatch.undo()
            assert conn.counters()["twopc_commits"] == 1
            conn.flush()
            assert cluster.shards[1].db.prepared_gtids == (gtid,)
            assert cluster.shards[0].db.prepared_gtids == ()
            assert conn.resolve_in_doubt() == {gtid: "commit"}
            conn.flush()
            assert cluster.pending_2pc_gtids() == set()
            session = conn.session()
            try:
                assert txns.run(session, "Balance", {"N": customer_name(1)}) == 0.0
                assert txns.run(session, "Balance", {"N": customer_name(2)}) > before
            finally:
                session.close()

    def test_flush_and_close_leave_no_prepared_gtid_on_any_shard(self, cluster):
        txns = get_strategy("base-si").transactions()
        for base, settle in ((0, "flush"), (10**6, "close")):
            conn = cluster.connect(gtid_base=base)
            session = conn.session()
            for _ in range(20):
                txns.run(session, "Amalgamate", CROSS)
                txns.run(session, "Amalgamate", {"N1": CROSS["N2"], "N2": CROSS["N1"]})
            session.close()
            getattr(conn, settle)()
            assert [shard.db.prepared_gtids for shard in cluster.shards] == [(), ()]
            assert [
                shard.server.stats()["decisions_refused"] for shard in cluster.shards
            ] == [0, 0]
            conn.close()
