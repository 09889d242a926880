"""The shard router behind ``cluster://`` (DESIGN.md §12.3–12.5).

End-to-end over real TCP shards: URL plumbing, statement routing,
program-level parity with a single node, the single-shard fast path
(white-box via the router's commit-path counters), vacuum through the
facade, and one snapshot order for the whole cluster — a reader that
meets a half-delivered decision waits on the shard for the rest of it,
whichever router or ``tcp://`` client it came through.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.analysis import merge_shard_histories
from repro.cluster import Cluster, ClusterConnection
from repro.errors import IntegrityError, SerializationFailure, SqlError
from repro.net.client import NetworkSession
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.smallbank.schema import total_money


class TestClusterUrl:
    def test_connect_parses_multi_address_urls(self):
        with Cluster(2, customers=4) as cluster:
            with repro.connect(cluster.url) as conn:
                assert isinstance(conn, ClusterConnection)
                assert conn.shard_count == 2
                assert conn.url == cluster.url
                assert conn.ping()

    @pytest.mark.parametrize(
        "url",
        [
            "cluster://",
            "cluster://127.0.0.1",
            "cluster://127.0.0.1:x",
            "cluster://127.0.0.1:1,borked",
        ],
    )
    def test_malformed_cluster_urls_rejected(self, url):
        with pytest.raises(ValueError):
            repro.connect(url)

    def test_server_side_configuration_rejected(self):
        with pytest.raises(ValueError):
            repro.connect("cluster://127.0.0.1:1", isolation="si")


PROGRAM_SEQUENCE = [
    ("DepositChecking", {"N": customer_name(1), "V": 25.0}),
    ("TransactSaving", {"N": customer_name(2), "V": 40.0}),
    ("Amalgamate", {"N1": customer_name(1), "N2": customer_name(2)}),
    ("WriteCheck", {"N": customer_name(3), "V": 15.0}),
    ("Balance", {"N": customer_name(1)}),
    ("Amalgamate", {"N1": customer_name(4), "N2": customer_name(3)}),
    ("Balance", {"N": customer_name(3)}),
]


def run_sequence(connection):
    txns = get_strategy("base-si").transactions()
    results = []
    session = connection.session()
    try:
        for program, args in PROGRAM_SEQUENCE:
            results.append(txns.run(session, program, args))
    finally:
        session.close()
    return results


class TestProgramParity:
    def test_five_programs_match_a_single_node_run(self):
        """The same serial program sequence produces identical results and
        identical final balances on a 2-shard cluster and a single node."""
        population = PopulationConfig(customers=6)
        local_db = build_database(None, population)
        local = repro.connect("local://", database=local_db)
        local_results = run_sequence(local)
        with Cluster(2, customers=6) as cluster:
            with cluster.connect() as conn:
                cluster_results = run_sequence(conn)
                assert cluster_results == local_results
                session = conn.session()
                session.begin("audit")
                try:
                    for table in ("Saving", "Checking"):
                        for cid in range(1, 7):
                            row = session.select(table, cid)
                            local_session = local.session()
                            local_session.begin("audit")
                            expected = local_session.select(table, cid)
                            local_session.commit()
                            assert row == expected, (table, cid)
                finally:
                    session.close()
            assert cluster.total_money() == total_money(local_db)


class TestFastPath:
    def test_single_customer_programs_skip_2pc(self):
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                txns = get_strategy("base-si").transactions()
                session = conn.session()
                try:
                    txns.run(
                        session,
                        "DepositChecking",
                        {"N": customer_name(1), "V": 5.0},
                    )
                    txns.run(session, "Balance", {"N": customer_name(2)})
                finally:
                    session.close()
                counters = conn.counters()
                assert counters["fastpath_commits"] == 2
                assert counters["twopc_commits"] == 0

    def test_single_shard_amalgamate_skips_2pc(self):
        """Both customers on shard 0 (ids 2 and 4): one writing branch,
        so even the two-customer program takes the fast path."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                txns = get_strategy("base-si").transactions()
                session = conn.session()
                try:
                    txns.run(
                        session,
                        "Amalgamate",
                        {"N1": customer_name(2), "N2": customer_name(4)},
                    )
                finally:
                    session.close()
                counters = conn.counters()
                assert counters["fastpath_commits"] == 1
                assert counters["twopc_commits"] == 0
                assert counters["twopc_aborts"] == 0

    def test_cross_shard_amalgamate_uses_2pc(self):
        """Customers 1 (shard 1) and 2 (shard 0): two writing branches."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                txns = get_strategy("base-si").transactions()
                session = conn.session()
                try:
                    txns.run(
                        session,
                        "Amalgamate",
                        {"N1": customer_name(1), "N2": customer_name(2)},
                    )
                finally:
                    session.close()
                counters = conn.counters()
                assert counters["twopc_commits"] == 1
                assert counters["fastpath_commits"] == 0

    def test_cross_shard_read_only_stays_on_the_fast_path(self):
        """Reads on both shards but zero writers: nothing to vote on."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                session = conn.session()
                session.begin("Audit")
                try:
                    assert session.select("Checking", 1) is not None  # shard 1
                    assert session.select("Checking", 2) is not None  # shard 0
                    session.commit()
                finally:
                    session.close()
                assert conn.counters()["fastpath_commits"] == 1
                assert conn.counters()["twopc_commits"] == 0


class TestRouting:
    def test_scan_merges_all_shards_in_key_order(self):
        with Cluster(2, customers=5) as cluster:
            with cluster.connect() as conn:
                session = conn.session()
                session.begin("Scan")
                try:
                    rows = session.scan("Checking")
                    assert [key for key, _ in rows] == [1, 2, 3, 4, 5]
                    session.commit()
                finally:
                    session.close()

    def test_lookup_unique_routes_by_secondary_customer_key(self):
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                session = conn.session()
                session.begin("Lookup")
                try:
                    found = session.lookup_unique("Account", "CustomerId", 3)
                    assert found == (
                        customer_name(3),
                        {"Name": customer_name(3), "CustomerId": 3},
                    )
                    session.commit()
                finally:
                    session.close()

    def test_unroutable_statement_rejected(self):
        """A WHERE clause that does not pin the partition column cannot be
        routed; the router refuses rather than broadcasting writes."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                session = conn.session()
                session.begin("Bad")
                try:
                    with pytest.raises(SqlError):
                        session.execute_prepared(
                            "UPDATE Checking SET Balance = 0 "
                            "WHERE Balance > :b",
                            "update",
                            {"b": 0.0},
                        )
                finally:
                    session.close()

    def test_insert_routes_by_partition_value(self):
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                session = conn.session()
                session.begin("Insert")
                try:
                    session.insert(
                        "Conflict", {"Id": 6, "Value": 0}
                    )  # 6 % 2 == 0
                    session.commit()
                finally:
                    session.close()
                session = conn.session()
                session.begin("Check")
                try:
                    assert session.select("Conflict", 6) == {
                        "Id": 6,
                        "Value": 0,
                    }
                    session.commit()
                finally:
                    session.close()
            # White-box: the row landed on shard 0 only.
            assert cluster.shards[0].db.catalog.table("Conflict").chain(6)
            assert cluster.shards[1].db.catalog.table("Conflict").chain(6) is None


class TestVacuum:
    def test_cluster_vacuum_fans_out_and_sums(self):
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                for i in range(5):
                    with conn.transaction("Churn") as txn:
                        txn.update("Checking", 1, {"Balance": float(i)})
                pruned = conn.vacuum()
                assert pruned >= 4  # superseded versions of Checking[1]
                stats = conn.stats()
                assert stats["backend"] == "cluster"
                assert stats["shards"] == 2
                for shard_stats in stats["shard_stats"]:
                    assert shard_stats["vacuum_runs"] == 1
                assert (
                    sum(
                        s["vacuum_pruned_total"]
                        for s in stats["shard_stats"]
                    )
                    == pruned
                )

    def test_autovacuum_prunes_periodically(self):
        with Cluster(
            1, customers=2, autovacuum_interval=0.05
        ) as cluster:
            with cluster.connect() as conn:
                for i in range(5):
                    with conn.transaction("Churn") as txn:
                        txn.update("Checking", 1, {"Balance": float(i)})
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    shard_stats = conn.stats()["shard_stats"][0]
                    if shard_stats["vacuum_pruned_total"] >= 4:
                        break
                    time.sleep(0.05)
                assert shard_stats["vacuum_runs"] >= 1
                assert shard_stats["vacuum_pruned_total"] >= 4


def _transfer(conn, amount=10.0):
    """Move ``amount`` from Checking[1] (shard 1) to Checking[2] (shard 0):
    two writing branches, always a 2PC commit."""
    session = conn.session()
    session.begin("Transfer")
    try:
        source = session.select("Checking", 1)["Balance"]
        target = session.select("Checking", 2)["Balance"]
        session.update("Checking", 1, {"Balance": round(source - amount, 2)})
        session.update("Checking", 2, {"Balance": round(target + amount, 2)})
        session.commit()
    finally:
        session.close()


def _observed_total(conn):
    session = conn.session()
    session.begin("Peek")
    try:
        total = (
            session.select("Checking", 1)["Balance"]
            + session.select("Checking", 2)["Balance"]
        )
        session.commit()
        return round(total, 2)
    finally:
        session.close()


def _parked(cluster, shard):
    return cluster.shards[shard].server.stats()["parked_total"]


def _wait_for(condition, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def _hold_the_second_delivery(monkeypatch, reader, cluster):
    """Write a transfer's one-way commit to shard 0 (its first target)
    and wait until it has landed there; then, with shard 1's frame held
    back, start ``reader`` on a thread of its own — its snapshot opens
    after shard 0 committed — and write the frame once shard 1 has
    parked the reader's read of the prepared row.  Returns the reader's
    results (filled once its thread is joined) and the threads."""
    results, threads, landed = [], [], []
    send = NetworkSession.send_one_way

    def hold(self, op, args):
        if not landed:
            send(self, op, args)
            landed.append(args["gtid"])
            _wait_for(
                lambda: args["gtid"] not in cluster.shards[0].db.prepared_gtids,
                "the first delivery to land",
            )
            return
        parked = _parked(cluster, 1)
        thread = threading.Thread(target=lambda: results.append(reader()))
        thread.start()
        threads.append(thread)
        _wait_for(lambda: _parked(cluster, 1) > parked, "the reader to park")
        assert thread.is_alive()
        send(self, op, args)

    monkeypatch.setattr(NetworkSession, "send_one_way", hold)
    return results, threads


class TestSnapshotWindow:
    def test_a_tcp_reader_parks_on_a_prepared_row(self, monkeypatch):
        """A ``tcp://`` reader of shard 1 meets the transfer prepared
        there and committed on shard 0: it waits on the shard for the
        decision, then reads what its snapshot covers."""
        with Cluster(2, customers=4) as cluster:
            host, port = cluster.addresses[1]

            def peek():
                with repro.connect(f"tcp://{host}:{port}") as conn:
                    with conn.transaction("Peek") as txn:
                        return txn.select("Checking", 1)["Balance"]

            with cluster.connect() as conn:
                before = peek()
                results, threads = _hold_the_second_delivery(
                    monkeypatch, peek, cluster
                )
                _transfer(conn, 10.0)
                monkeypatch.undo()
                for thread in threads:
                    thread.join(5.0)
                after = peek()
            assert len(results) == 1
            assert results[0] in (before, after) and after == round(before - 10.0, 2)

    def test_consistent_mode_never_shows_a_fractured_read(self):
        """Concurrent cluster readers racing many 2PC commits observe
        only conserved totals: a read that meets a decision delivered to
        one shard and not yet to the other waits for it."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                before = _observed_total(conn)
                totals = []
                done = threading.Event()

                def reader():
                    while not done.is_set():
                        totals.append(_observed_total(conn))

                thread = threading.Thread(target=reader)
                thread.start()
                try:
                    for _ in range(15):
                        _transfer(conn, 10.0)
                finally:
                    done.set()
                    thread.join()
                assert conn.counters()["twopc_commits"] == 15
                assert totals  # the reader did race the commits
                assert set(totals) == {before}
            assert merge_shard_histories(cluster.histories()).snapshot_isolated

    def test_a_second_router_never_sees_a_fractured_read(self, monkeypatch):
        """The reader is a cluster transaction on a second router, begun
        after the first delivery landed: its read of the row still
        prepared on shard 1 waits for the second delivery."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn, cluster.connect(
                gtid_base=10**6
            ) as other:
                before = _observed_total(conn)
                observed, threads = _hold_the_second_delivery(
                    monkeypatch, lambda: _observed_total(other), cluster
                )
                _transfer(conn, 10.0)
                monkeypatch.undo()
                for thread in threads:
                    thread.join(5.0)
            assert len(observed) == 1
            assert merge_shard_histories(cluster.histories()).snapshot_isolated
            assert observed == [before]


class TestTwoRouters:
    @pytest.mark.xfail(
        strict=True,
        reason="a second router's resolver presumes abort for the first "
        "router's logged, undelivered commit (ROADMAP item 16, Open)",
    )
    def test_a_second_routers_sweep_leaves_a_late_decision_applied(
        self, monkeypatch
    ):
        """Router A's commit frame to shard 1 is held at the send seam
        until shard 0 has applied its own frame and router B's
        ``resolve_in_doubt()`` has swept and settled.  Both shards must
        end committed, and no shard may refuse a decision."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn, cluster.connect(
                gtid_base=10**6
            ) as other:
                before = _observed_total(conn)
                send = NetworkSession.send_one_way
                held, swept = [], {}

                def hold(session, op, args):
                    gtid = args["gtid"]
                    peer = session._wire.sock.getpeername()[1]
                    if op == "COMMIT_2PC" and peer == cluster.addresses[1][1] and not held:
                        held.append(gtid)
                        _wait_for(
                            lambda: gtid not in cluster.shards[0].db.prepared_gtids,
                            "shard 0 to apply its frame",
                        )
                        swept.update(other.resolve_in_doubt())
                        other.flush()
                    send(session, op, args)

                monkeypatch.setattr(NetworkSession, "send_one_way", hold)
                _transfer(conn, 10.0)
                monkeypatch.undo()
                conn.flush()
                refused = [
                    shard.server.stats()["decisions_refused"]
                    for shard in cluster.shards
                ]
                assert held and swept == {held[0]: "abort"}
                assert _observed_total(conn) == before  # both shards or neither
                assert refused == [0, 0]


class TestTwoPhaseAbort:
    def test_prepare_time_no_vote_aborts_the_whole_global_txn(self):
        """A validation failure on the *second* participant's prepare (a
        unique-constraint collision only visible at commit time) must
        roll the already-prepared first participant back too: no
        prepared orphan survives on any shard, and none of the global
        transaction's writes land anywhere."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                first = conn.session()
                second = conn.session()
                first.begin("T1")
                second.begin("T2")
                # Distinct Account rows (no write-write conflict) sharing
                # CustomerId 99 — the collision is invisible until the
                # unique check at prepare.  Both also write shard 0, so
                # both commits are genuine 2PC.
                first.insert(
                    "Account", {"Name": customer_name(11), "CustomerId": 99}
                )  # 11 % 2 == 1
                first.update("Checking", 2, {"Balance": 1.0})
                second.insert(
                    "Account", {"Name": customer_name(13), "CustomerId": 99}
                )  # 13 % 2 == 1
                second.update("Checking", 4, {"Balance": 77.0})
                first.commit()
                with pytest.raises(IntegrityError):
                    second.commit()
                second.close()
                counters = conn.counters()
                assert counters["twopc_commits"] == 1
                assert counters["twopc_aborts"] == 1
                conn.flush()
                for shard_stats in conn.stats()["shard_stats"]:
                    assert shard_stats["prepared_2pc"] == 0
                with conn.transaction("Check") as txn:
                    # T2's shard-0 write (prepared before the NO vote
                    # arrived from shard 1) must not have survived.
                    assert txn.select("Checking", 4)["Balance"] != 77.0
                    found = txn.lookup_unique("Account", "CustomerId", 99)
                    assert found is not None
                    assert found[0] == customer_name(11)

    def test_write_conflict_surfaces_as_serialization_failure(self):
        """First-updater-wins over the cluster: the colliding write is
        refused with the same exception class a single node raises."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect() as conn:
                first = conn.session()
                second = conn.session()
                first.begin("T1")
                second.begin("T2")
                first.update("Conflict", 2, {"Value": 1})
                first.update("Conflict", 1, {"Value": 1})
                first.commit()
                with pytest.raises(SerializationFailure):
                    second.update("Conflict", 2, {"Value": 2})
                    second.commit()
                second.close()
                # The failed writer never reached its commit: the router
                # records neither a fast-path nor a 2PC commit for it.
                assert conn.counters()["twopc_commits"] == 1
