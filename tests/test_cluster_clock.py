"""One snapshot order for the whole cluster (Clock-SI, DESIGN.md §12.3).

The shards keep the clock: a branch begins past the timestamp its router
sends, or at the transaction's snapshot exactly; a 2PC commit lands at
one timestamp on every shard; a read that meets a prepared row which
may land inside its snapshot waits for the decision.  Checked here: two
routers on one cluster never show each other a fractured read, a router
reads its own commit on a shard whose clock is behind, a snapshot older
than a shard's vacuum horizon is refused retryably and counted (and the
retry begins past that horizon), a lookup by a unique column waits for
a prepared row that carries the value, and a prepare recovered in doubt
holds its readers until it is decided.
"""

from __future__ import annotations

import itertools
import threading

import pytest

import repro

from repro.analysis import merge_shard_histories
from repro.cluster import Cluster
from repro.engine import EngineConfig, Session
from repro.engine.session import NoWaitWaiter, WouldBlock
from repro.errors import SnapshotTooOld, TransactionAborted
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.smallbank import PopulationConfig, build_database, customer_name, get_strategy
from repro.workload.retry import RetryPolicy

from tests.test_cluster_router import _observed_total, _transfer

#: Two-shard reads the two-router probe takes.
PROBE_READS = 2_000


def test_two_routers_never_show_each_other_a_fractured_read():
    """Transfers between customers 1 (shard 1) and 2 (shard 0) on one
    router, two-shard reads of both balances on another: every read sees
    each transfer on both shards or on neither."""
    with Cluster(2, customers=4) as cluster:
        with cluster.connect() as writer, cluster.connect(gtid_base=10**6) as reader:
            conserved = _observed_total(writer)
            done = threading.Event()
            transfers = []

            def transfer():
                while not done.is_set():
                    try:
                        _transfer(writer, 1.0)
                        transfers.append(1)
                    except TransactionAborted:
                        pass

            thread = threading.Thread(target=transfer)
            thread.start()
            totals, aborted = [], 0
            try:
                while len(totals) < PROBE_READS:
                    try:
                        totals.append(_observed_total(reader))
                    except TransactionAborted:  # a park that timed out
                        aborted += 1
            finally:
                done.set()
                thread.join()
            fractured = [total for total in totals if total != conserved]
            assert fractured == []
            assert transfers and aborted < PROBE_READS // 100
        report = merge_shard_histories(cluster.histories())
        assert report.snapshot_isolated


def test_a_router_reads_its_commit_on_a_shard_whose_clock_is_behind():
    """Deposits to customer 1 run shard 1's clock far ahead of shard 0's.
    A transaction that begins on shard 0 begins past the router's clock,
    so its read of shard 1 covers the router's last deposit."""
    deposit = get_strategy("base-si").transactions()
    with Cluster(2, customers=4) as cluster:
        with cluster.connect() as conn:
            with conn.transaction("Before") as txn:
                start = txn.select("Checking", 1)["Balance"]
            session = conn.session()
            try:
                for _ in range(20):
                    deposit.run(
                        session, "DepositChecking", {"N": customer_name(1), "V": 1.0}
                    )
            finally:
                session.close()
            assert cluster.shards[0].server.db.last_ts < conn.clock
            with conn.transaction("Peek") as txn:
                assert txn.select("Checking", 2) is not None  # shard 0 first
                seen = txn.select("Checking", 1)["Balance"]
            assert seen == pytest.approx(start + 20.0)


def test_a_snapshot_below_the_vacuum_horizon_is_refused_and_counted():
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=4))
    session = Session(db)
    for value in (1.0, 2.0):
        session.begin("write")
        session.update("Checking", 1, {"Balance": value})
        session.commit()
    old = db.last_ts - 1
    assert db.vacuum() >= 1
    server = DatabaseServer(db).start_in_thread()
    try:
        wire = WireConnection("127.0.0.1", server.port)
        try:
            with pytest.raises(SnapshotTooOld) as refused:
                wire.call("BEGIN", {"label": "late", "ts": old, "snapshot_ts": old})
            assert refused.value.horizon == db.last_ts  # it crossed the wire
            assert not wire.broken  # a refusal, not a failed wire
            begun = wire.call("BEGIN", {"label": "fresh", "ts": old})
            assert begun["snapshot_ts"] > db.last_ts - 1
            wire.call("ROLLBACK", {})
        finally:
            wire.close()
        assert RetryPolicy().is_retryable(refused.value)
        assert server.stats()["aborts_by_reason"] == {"snapshot-too-old": 1}
        assert server.stats()["active_transactions"] == 0
    finally:
        server.shutdown()


def _run_shard_1_ahead_and_vacuum(cluster, ticks=50):
    """Tick shard 1's clock ``ticks`` times through a ``tcp://`` client
    that no router hears from, then vacuum it: its horizon is then far
    past shard 0's clock."""
    host, port = cluster.addresses[1]
    with repro.connect(f"tcp://{host}:{port}") as direct:
        session = direct.session()
        try:
            for _ in range(ticks):
                session.begin("tick")
                session.select("Checking", 1)
                session.commit()
        finally:
            session.close()
    shard_1 = cluster.shards[1].server.db
    shard_1.vacuum()
    assert cluster.shards[0].server.db.last_ts + ticks // 2 < shard_1.last_ts


def _with_retries(body, policy=RetryPolicy.exponential(3, base_backoff=0.0)):
    """``body()`` retried as a new transaction while ``policy`` allows;
    its result and the number of attempts it took."""
    for attempt in itertools.count(1):
        try:
            return body(), attempt
        except TransactionAborted as exc:
            if not policy.should_retry(exc, attempt):
                raise


def test_a_refused_snapshot_is_retried_past_the_horizon():
    """A two-shard transaction whose snapshot is taken on shard 0, behind
    shard 1's vacuum horizon, is refused on shard 1 once: the refusal
    names the horizon, the router's clock rises to it, and the retry
    begins past it.  Alike for a statement transaction (a deferred BEGIN
    on first touch) and a split program (its second part's ``CALL``)."""
    amalgamate = get_strategy("base-si").transactions()
    names = {"N1": customer_name(2), "N2": customer_name(1)}  # shard 0, then 1

    def split_program():
        session = conn.session()
        try:
            amalgamate.run(session, "Amalgamate", names)
        finally:
            session.close()

    with Cluster(2, customers=4) as cluster, cluster.connect() as conn:
        refused = lambda: conn.stats()["shard_stats"][1]["aborts_by_reason"].get(
            "snapshot-too-old", 0
        )
        total = _observed_total(conn)
        _run_shard_1_ahead_and_vacuum(cluster)
        assert _with_retries(lambda: _observed_total(conn)) == (total, 2)
        assert refused() == 1
        assert conn.clock >= cluster.shards[1].server.db.last_ts - 1
        _run_shard_1_ahead_and_vacuum(cluster)
        assert _with_retries(split_program)[1] == 2
        assert refused() == 2
        assert conn.counters()["twopc_commits"] == 1


def test_a_lookup_by_a_unique_column_waits_for_a_prepared_row_with_its_value():
    """The unique index holds committed values only: a lookup of a value
    that a prepared branch inserts, or moves into the column, waits for
    the decision like a read of its row, unless it prepared after the
    lookup's snapshot."""
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=2))
    early = Session(db, NoWaitWaiter())
    early.begin("early")  # its snapshot is older than the prepare
    early.select("Checking", 1)
    txn = db.begin("T", 0)  # a cluster branch: ts 0
    db.insert(txn, "Account", {"Name": "newcomer", "CustomerId": 99})
    db.update(txn, "Account", customer_name(1), {"CustomerId": 98})
    prepare_ts = db.prepare_commit(txn, "g")
    reader = Session(db, NoWaitWaiter())
    reader.begin("peek")
    for column, value in (("CustomerId", 99), ("Name", "newcomer"), ("CustomerId", 98)):
        with pytest.raises(WouldBlock):
            reader.lookup_unique("Account", column, value)
        assert early.lookup_unique("Account", column, value) is None
    assert reader.lookup_unique("Account", "CustomerId", 2) is not None
    assert db.commit_prepared("g", prepare_ts) == prepare_ts
    assert reader.lookup_unique("Account", "CustomerId", 99)[0] == "newcomer"
    assert reader.lookup_unique("Account", "CustomerId", 98)[0] == customer_name(1)
    reader.commit()
    early.commit()


def test_a_recovered_in_doubt_prepare_holds_its_readers_until_decided():
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=2))
    txn = db.begin("T", 0)  # a cluster branch: ts 0
    db.update(txn, "Checking", 1, {"Balance": 500.0})
    prepare_ts = db.prepare_commit(txn, "g")
    db.crash()
    recovered = db.recover()
    assert recovered.recovered_in_doubt == ("g",)
    assert recovered.last_ts >= prepare_ts
    reader = Session(recovered, NoWaitWaiter())
    reader.begin("peek")
    with pytest.raises(WouldBlock):
        reader.select("Checking", 1)
    assert reader.select("Checking", 2) is not None  # not a row it wrote
    assert recovered.commit_prepared("g", prepare_ts) == prepare_ts
    assert reader.select("Checking", 1)["Balance"] == 500.0
    reader.commit()
