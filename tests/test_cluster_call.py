"""Whole programs through ``cluster://`` (DESIGN.md §12.6).

The router routes a program from its arguments alone: a program whose
customers share a shard is one ``CALL`` to that shard and *nothing* to
any other; an Amalgamate of customers on two shards is its two parts as
at most five RPCs.  Checked here from the shards' own ``rpcs_total``
counters, together with: either part's failure aborts both, the
contended first part falls back to waiting outside the snapshot window,
and two reversed-pair Amalgamates — a deadlock no shard can see — end in
a retryable lock timeout rather than hanging for ever.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.analysis import merge_shard_histories
from repro.cluster import Cluster
from repro.cluster.partition import SHARD_LOCK_TIMEOUT
from repro.errors import ApplicationRollback, TransactionAborted
from repro.smallbank import customer_name, get_strategy

#: Customer 1 lives on shard 1, customers 2 and 4 on shard 0.
CROSS = {"N1": customer_name(1), "N2": customer_name(2)}


def shard_rpcs(cluster):
    return [shard.server.stats()["rpcs_total"] for shard in cluster.shards]


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
        # Cross-shard: CALL first part + COMMIT_2PC on shard 1, BEGIN +
        # CALL second part + COMMIT_2PC on shard 0.
        assert deltas[5] == [3, 2]
        counters = conn.counters()
        assert counters["fastpath_commits"] == 10
        assert counters["twopc_commits"] == 2
        assert counters["twopc_aborts"] == 0

    def test_uncontended_cross_shard_costs_no_thread_hand_off(
        self, cluster, conn
    ):
        """Both shards serve all five RPCs on their loop threads — the
        second part's CALL joins the window's BEGIN inline — and the
        router sends and gathers every round itself: no pool thread."""
        txns = get_strategy("base-si").transactions()
        session = conn.session()
        try:
            before = shard_rpcs(cluster)
            for _ in range(200):
                txns.run(session, "Amalgamate", CROSS)
        finally:
            session.close()
        # One PREPARE_PROGRAM per part the first time, then 3 + 2 each.
        assert [a - b for a, b in zip(shard_rpcs(cluster), before)] == [
            200 * 3 + 1,
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


class TestEitherPartAbortsBoth:
    def _amalgamate_behind(self, conn, table, cid):
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

    def test_first_part_says_no(self, cluster, conn):
        """The debit half finds Saving[1] locked: no waiting inside the
        snapshot window — both snapshots first, then it waits, loses to
        the first updater, and the open branch on the other shard is
        rolled back."""
        before = balances(conn, 1, 2)
        raised = self._amalgamate_behind(conn, "Saving", 1)
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
        raised = self._amalgamate_behind(conn, "Checking", 2)
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
