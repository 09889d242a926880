"""Whole programs through ``cluster://`` (DESIGN.md §12.6).

The router routes a program from its arguments alone: a program whose
customers share a shard is one ``CALL`` to that shard and *nothing* to
any other; an Amalgamate of customers on two shards is its two parts as
four RPCs — a ``CALL`` to each part's shard, the second at the first's
snapshot, then the decision to both — and no ``BEGIN``.  Checked here
from the shards' own ``rpcs_total`` counters and from the requests the
router sends, together with: either part's failure aborts both, a part
behind a held row waits on its shard and costs no request more, two
reversed-pair Amalgamates — a deadlock no shard can see — end in a
retryable lock timeout rather than hanging for ever, and the aborts are
counted by what caused them, on the shards and in the router.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.analysis import merge_shard_histories
from repro.cluster import Cluster
from repro.cluster.partition import SHARD_LOCK_TIMEOUT
from repro.errors import (
    ApplicationRollback,
    LockTimeout,
    SerializationFailure,
    TransactionAborted,
)
from repro.net.client import NetworkSession, WireConnection
from repro.obs import Observability
from repro.smallbank import customer_name, get_strategy

#: Customer 1 lives on shard 1, customers 2 and 4 on shard 0.
CROSS = {"N1": customer_name(1), "N2": customer_name(2)}


def shard_rpcs(cluster):
    return [shard.server.stats()["rpcs_total"] for shard in cluster.shards]


def shard_parked(cluster):
    return [shard.server.stats()["parked_total"] for shard in cluster.shards]


def shard_aborts(conn):
    return [shard["aborts_by_reason"] for shard in conn.stats()["shard_stats"]]


def balances(conn, *cids):
    with conn.transaction("audit") as txn:
        return {
            (table, cid): txn.select(table, cid)["Balance"]
            for table in ("Saving", "Checking")
            for cid in cids
        }


@pytest.fixture
def cluster():
    with Cluster(2, customers=4) as cluster:
        yield cluster


@pytest.fixture
def conn(cluster):
    with cluster.connect() as conn:
        yield conn


@pytest.fixture
def log(conn, monkeypatch):
    """``(thread name, "OP@shard")`` for every request ``conn``'s
    sessions send, in send order: each passes ``WireConnection.send``,
    whose wire's peer is the shard."""
    entries = []
    send = WireConnection.send
    shards = [(shard.host, shard.port) for shard in conn.shards]

    def spy(self, op, args):
        peer = self.sock.getpeername()[:2]
        if peer in shards:
            shard = shards.index(peer)
            entries.append((threading.current_thread().name, f"{op}@{shard}"))
        return send(self, op, args)

    monkeypatch.setattr(WireConnection, "send", spy)
    return entries


def sent_by(log, thread="MainThread"):
    """What ``thread`` sent, program registrations left out."""
    return [
        what
        for who, what in log
        if who == thread and not what.startswith("PREPARE_PROGRAM")
    ]


class TestOpCounts:
    @pytest.mark.parametrize(
        "strategy", ["base-si", "promote-all", "materialize-all"]
    )
    def test_exact_rpcs_per_shard(self, cluster, conn, strategy):
        txns = get_strategy(strategy).transactions()
        runs = [
            ("DepositChecking", {"N": customer_name(1), "V": 5.0}),
            ("Balance", {"N": customer_name(2)}),
            ("WriteCheck", {"N": customer_name(1), "V": 2.0}),
            ("TransactSaving", {"N": customer_name(2), "V": 3.0}),
            ("Amalgamate", {"N1": customer_name(2), "N2": customer_name(4)}),
            ("Amalgamate", CROSS),
        ]
        session = conn.session()
        try:
            for program, args in runs:  # register everything once
                txns.run(session, program, args)
            deltas = []
            for program, args in runs:
                before = shard_rpcs(cluster)
                txns.run(session, program, args)
                deltas.append(
                    [a - b for a, b in zip(shard_rpcs(cluster), before)]
                )
        finally:
            session.close()
        # [shard 0, shard 1]: the owning shard serves one CALL, the
        # other shard hears nothing at all.
        assert deltas[:5] == [[0, 1], [1, 0], [0, 1], [1, 0], [1, 0]]
        # Cross-shard: CALL first part + COMMIT_2PC on shard 1, CALL
        # second part + COMMIT_2PC on shard 0.
        assert deltas[5] == [2, 2]
        counters = conn.counters()
        assert counters["fastpath_commits"] == 10
        assert counters["twopc_commits"] == 2
        assert counters["twopc_aborts"] == 0

    def test_uncontended_cross_shard_costs_no_thread_hand_off(
        self, cluster, conn
    ):
        """Both shards serve all four RPCs on their loop threads — each
        part's CALL begins its own transaction inline — and the router
        sends and gathers every round itself: no pool thread."""
        txns = get_strategy("base-si").transactions()
        session = conn.session()
        try:
            before = shard_rpcs(cluster)
            for _ in range(200):
                txns.run(session, "Amalgamate", CROSS)
        finally:
            session.close()
        # One PREPARE_PROGRAM per part the first time, then 2 + 2 each.
        assert [a - b for a, b in zip(shard_rpcs(cluster), before)] == [
            200 * 2 + 1,
            200 * 2 + 1,
        ]
        assert conn.counters()["twopc_commits"] == 200
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-fanout")
        ]
        # Nor did a request wait: nothing parked on either shard.
        assert [
            shard["parked_total"]
            for shard in conn.stats()["shard_stats"]
        ] == [0, 0]

    def test_uncontended_cross_shard_sends_no_begin(self, cluster):
        obs = Observability()
        txns = get_strategy("base-si").transactions()
        with cluster.connect(obs=obs) as conn:
            session = conn.session()
            try:
                for _ in range(20):
                    txns.run(session, "Amalgamate", CROSS)
            finally:
                session.close()
            assert conn.counters()["twopc_commits"] == 20
        begins = obs.metrics.histogram(
            "repro_net_client_rpc_seconds", labels={"op": "BEGIN"}
        )
        assert begins.count == 0
        assert shard_parked(cluster) == [0, 0]

    def test_branch_labels_carry_the_gtid(self, cluster, conn):
        txns = get_strategy("promote-all").transactions()
        session = conn.session()
        try:
            txns.run(session, "Amalgamate", CROSS)
            txns.run(session, "Balance", {"N": customer_name(1)})
        finally:
            session.close()
        labels = [
            txn.label
            for history in cluster.histories().values()
            for txn in history
        ]
        amalgamates = [l for l in labels if l.startswith("Amalgamate#g")]
        assert len(amalgamates) == 2 and len(set(amalgamates)) == 1
        assert any(l.startswith("Balance#g") for l in labels)
        report = merge_shard_histories(cluster.histories())
        assert report.serializable
        assert len(report.transactions) == 2


def amalgamate_behind(conn, table, cid):
    """Cross-shard Amalgamate racing a writer of ``table[cid]`` that
    commits while the program waits for the row: first updater wins,
    so the part that touches the row votes NO."""
    holder = conn.session()
    holder.begin("Holder")
    holder.update(table, cid, {"Balance": 1.0})
    raised = []

    def run():
        session = conn.session()
        try:
            get_strategy("base-si").transactions().run(
                session, "Amalgamate", CROSS
            )
        except Exception as exc:  # noqa: BLE001 - reported to the test
            raised.append(exc)
        finally:
            session.close()

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(SHARD_LOCK_TIMEOUT / 5)
    holder.commit()
    holder.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    return raised


class TestEitherPartAbortsBoth:
    def test_first_part_says_no(self, cluster, conn):
        """The debit half finds Saving[1] locked: it waits, loses to the
        first updater, and nothing is left open on either shard."""
        before = balances(conn, 1, 2)
        raised = amalgamate_behind(conn, "Saving", 1)
        assert len(raised) == 1 and isinstance(raised[0], TransactionAborted)
        after = balances(conn, 1, 2)
        assert after.pop(("Saving", 1)) == 1.0  # the holder's write only
        before.pop(("Saving", 1))
        assert after == before
        assert conn.counters()["twopc_aborts"] == 1
        assert conn.counters()["twopc_commits"] == 0
        assert cluster.pending_2pc_gtids() == set()
        for shard in cluster.shards:
            assert shard.server.stats()["active_transactions"] == 0

    def test_second_part_says_no(self, cluster, conn):
        """The debit half is already prepared when the credit half loses
        Checking[2] to the first updater: the abort decision must undo
        the prepared half."""
        before = balances(conn, 1, 2)
        raised = amalgamate_behind(conn, "Checking", 2)
        assert len(raised) == 1 and isinstance(raised[0], TransactionAborted)
        after = balances(conn, 1, 2)
        assert after.pop(("Checking", 2)) == 1.0  # the holder's write only
        before.pop(("Checking", 2))
        assert after == before  # customer 1 keeps its money
        assert conn.counters()["twopc_aborts"] == 1
        assert cluster.pending_2pc_gtids() == set()
        for shard in cluster.shards:
            assert shard.server.stats()["active_transactions"] == 0

    def test_business_rollback_in_either_part(self, cluster, conn):
        txns = get_strategy("base-si").transactions()
        before = balances(conn, 1, 2)
        session = conn.session()
        try:
            for args in (
                {"N1": "cust0000099", "N2": customer_name(2)},  # 99 -> shard 1
                {"N1": customer_name(1), "N2": "cust0000098"},  # 98 -> shard 0
            ):
                with pytest.raises(ApplicationRollback):
                    txns.run(session, "Amalgamate", args)
                session.rollback()
        finally:
            session.close()
        assert balances(conn, 1, 2) == before
        counters = conn.counters()
        assert counters["twopc_aborts"] == counters["twopc_commits"] == 0
        assert cluster.pending_2pc_gtids() == set()
        for shard in cluster.shards:
            assert shard.server.stats()["active_transactions"] == 0


class TestBlockedPart:
    """Customer 1 (the debit half, shard A) lives on shard 1, customer 2
    (the credit half, shard B) on shard 0."""

    def _amalgamate_past(self, cluster, conn, log, table, cid, shard):
        """Cross-shard Amalgamate while another session holds
        ``table[cid]`` on ``shard``; a second thread rolls the holder
        back once ``shard`` has parked the program's request for it."""
        holder = conn.session()
        holder.begin("Holder")
        holder.update(table, cid, {"Balance": 1.0})
        log.clear()

        def release():
            deadline = time.monotonic() + 5.0
            while shard_parked(cluster)[shard] == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            holder.rollback()

        releaser = threading.Thread(target=release, name="Releaser")
        releaser.start()
        session = conn.session()
        try:
            get_strategy("base-si").transactions().run(
                session, "Amalgamate", CROSS
            )
        finally:
            session.close()
            releaser.join(timeout=10.0)
            holder.close()
        assert conn.counters()["twopc_commits"] == 1

    def _waits_on_its_shard(self, cluster, conn, log, table, cid, shard):
        """The part that needs the held row parks on its shard until the
        holder lets go; the router sends what an uncontended run sends."""
        money = cluster.total_money()
        self._amalgamate_past(cluster, conn, log, table, cid, shard)
        assert sent_by(log) == [
            "CALL@1", "CALL@0", "COMMIT_2PC@1", "COMMIT_2PC@0",
        ]
        assert shard_parked(cluster) == [int(shard == 0), int(shard == 1)]
        assert cluster.total_money() == money
        assert cluster.pending_2pc_gtids() == set()
        assert merge_shard_histories(cluster.histories()).serializable

    def test_second_part_behind_a_held_row_waits(self, cluster, conn, log):
        self._waits_on_its_shard(cluster, conn, log, "Checking", 2, shard=0)

    def test_first_part_behind_a_held_row_waits(self, cluster, conn, log):
        self._waits_on_its_shard(cluster, conn, log, "Checking", 1, shard=1)


class TestDistributedDeadlock:
    def test_reversed_pairs_finish(self, cluster, conn):
        """Amalgamate(1, 2) against Amalgamate(2, 1): each holds its
        debit customer's rows on one shard and wants the other's on the
        other shard.  No shard sees the cycle; the shards' lock timeout
        breaks it, the loser retries, and nothing stays prepared."""
        money = cluster.total_money()
        txns = get_strategy("base-si").transactions()
        failures = []

        def worker(first: int, second: int) -> None:
            rng = random.Random(first)
            args = {"N1": customer_name(first), "N2": customer_name(second)}
            session = conn.session()
            try:
                for _ in range(50):
                    while True:
                        try:
                            txns.run(session, "Amalgamate", args)
                            break
                        except TransactionAborted:
                            session.rollback()
                            time.sleep(rng.uniform(0.0, 0.01))
            except Exception as exc:  # noqa: BLE001 - reported to the test
                failures.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker, args=pair, daemon=True)
            for pair in ((1, 2), (2, 1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads), "deadlocked"
        assert failures == []
        assert conn.counters()["twopc_commits"] == 100
        assert cluster.total_money() == money
        assert cluster.pending_2pc_gtids() == set()
        assert merge_shard_histories(cluster.histories()).serializable


class TestAbortsByReason:
    """Shard ``STATS`` count aborts by the engine's reason tag; the
    router splits ``twopc_aborts`` by what ended the attempt."""

    def test_reversed_pair_counts_lock_timeouts(self, cluster, conn, monkeypatch):
        """Both first parts vote before either second part is sent, so
        each second part waits on a row the other's prepared first part
        holds: no shard sees the cycle, and the lock timeout ends it."""
        barrier = threading.Barrier(2, timeout=5.0)
        call = NetworkSession.call_program

        def meet_first(self, program, args, label="", **kwargs):
            if "carry" in args:
                barrier.wait()  # both first parts have voted
            return call(self, program, args, label, **kwargs)

        monkeypatch.setattr(NetworkSession, "call_program", meet_first)
        money = cluster.total_money()
        txns = get_strategy("base-si").transactions()
        raised = []

        def amalgamate(first, second):
            session = conn.session()
            try:
                txns.run(
                    session,
                    "Amalgamate",
                    {"N1": customer_name(first), "N2": customer_name(second)},
                )
            except TransactionAborted as exc:
                raised.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=amalgamate, args=pair)
            for pair in ((1, 2), (2, 1))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert raised and all(isinstance(e, LockTimeout) for e in raised)
        counters = conn.counters()
        assert counters["twopc_aborts"] == len(raised)
        assert counters["twopc_aborts_lock_timeout"] == len(raised)
        assert counters["twopc_commits"] == 2 - len(raised)
        assert sum(
            shard.get("lock-timeout", 0) for shard in shard_aborts(conn)
        ) == len(raised)
        assert cluster.total_money() == money
        assert cluster.pending_2pc_gtids() == set()

    def test_first_updater_loss_counts_serialization(self, cluster, conn):
        raised = amalgamate_behind(conn, "Checking", 2)
        assert len(raised) == 1 and isinstance(raised[0], SerializationFailure)
        counters = conn.counters()
        assert counters["twopc_aborts"] == 1
        assert counters["twopc_aborts_serialization"] == 1
        on_b, on_a = shard_aborts(conn)
        assert on_b["serialization"] == 1
        assert "serialization" not in on_a
        assert on_a["2pc-abort"] == 1  # the prepared first part, undone

    def test_business_rollback_counts_under_no_key(self, cluster, conn):
        """Only the prepared first part the second part's rollback takes
        down counts, as the decision that aborted it."""
        txns = get_strategy("base-si").transactions()
        session = conn.session()
        try:
            for args in (
                {"N1": "cust0000099", "N2": customer_name(2)},  # 99 -> shard 1
                {"N1": customer_name(1), "N2": "cust0000098"},  # 98 -> shard 0
            ):
                with pytest.raises(ApplicationRollback):
                    txns.run(session, "Amalgamate", args)
        finally:
            session.close()
        assert shard_aborts(conn) == [{}, {"2pc-abort": 1}]
        assert not any(
            value
            for key, value in conn.counters().items()
            if key.startswith("twopc_aborts")
        )
