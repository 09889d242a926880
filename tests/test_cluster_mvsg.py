"""Distributed serializability checking over merged per-shard traces.

The centrepiece demonstrations of the cluster subsystem:

* a **cross-shard write-skew** that no individual shard can see — each
  shard's own history is perfectly serializable, the merged global MVSG
  has a two-edge rw cycle (the robustness gap of Beillahi et al. /
  Nagar & Jagannathan, cluster edition);
* **promotion restores acyclicity**: the same two transactions with
  their reads promoted to identity writes collide under
  first-updater-wins, the loser aborts, and the merged trace certifies;
* the paper's **read-only-transaction anomaly** reproduced over a
  2-shard cluster under plain SI and eliminated by the promote-all
  strategy — the single-node Section III result surviving distribution.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    GlobalTransaction,
    check_history,
    global_id,
    merge_shard_histories,
    split_label,
)
from repro.analysis.recorder import CommittedTransaction
from repro.cluster import Cluster
from repro.errors import AnalysisError, TransactionAborted
from repro.smallbank import customer_name, get_strategy


def _branch(txid, label, *, commit=5, reads=(), writes=()):
    return CommittedTransaction(
        txid=txid,
        label=label,
        start_ts=1,
        snapshot_ts=1,
        commit_ts=commit,
        reads=tuple(reads),
        writes=tuple(writes),
        cc_writes=(),
        predicate_reads=(),
    )


class TestLabelTagging:
    def test_split_label_extracts_the_gtid_tag(self):
        assert split_label("WriteCheck#g42") == ("WriteCheck", "g42")
        assert split_label("T1#g7") == ("T1", "g7")

    def test_untagged_labels_pass_through(self):
        assert split_label("WriteCheck") == ("WriteCheck", None)
        assert split_label("odd#gX") == ("odd#gX", None)
        assert split_label("") == ("", None)

    def test_global_id_falls_back_to_a_per_shard_id(self):
        assert global_id(0, _branch(3, "Bal#g9")) == "g9"
        assert global_id(1, _branch(3, "Bal")) == "s1-t3"

    def test_merge_of_empty_histories_is_serializable(self):
        report = merge_shard_histories({0: (), 1: ()})
        assert report.serializable
        assert report.transactions == {}
        assert report.edges == ()



class TestSnapshotIsolationVerdict:
    def test_a_two_shard_fractured_read_is_not_si(self):
        """Writer T has a branch on both shards; reader R sees T's version
        on shard 0 and the version before it on shard 1 — half of T."""
        x, y = ("Checking", 2), ("Checking", 1)
        report = merge_shard_histories(
            {
                0: (
                    _branch(1, "T#g1", commit=5, writes=(x,)),
                    _branch(2, "R#g2", commit=6, reads=((x, 5),)),
                ),
                1: (
                    _branch(1, "T#g1", commit=5, writes=(y,)),
                    _branch(2, "R#g2", commit=6, reads=((y, 0),)),
                ),
            }
        )
        assert not report.serializable and report.cross_shard_only
        assert not report.snapshot_isolated
        assert sorted(report.si_cycle.kinds) == ["rw", "wr"]
        assert {edge.source for edge in report.si_cycle.edges} == {"g1", "g2"}


class TestDuplicateBranchRefusal:
    def test_two_routers_leasing_one_gtid_are_refused(self):
        """Each router counts gtids from gtid_base=0, so both take g1;
        merging would fold the two writers into one transaction and drop
        the ww edge between them."""
        with Cluster(2, customers=4) as cluster:
            for value in (1.0, 2.0):
                with cluster.connect() as conn:
                    with conn.transaction("Deposit") as txn:
                        txn.update("Checking", 2, {"Balance": value})
            with pytest.raises(
                AnalysisError, match="shard 0 holds two branches of g1"
            ):
                merge_shard_histories(cluster.histories())

    def test_a_repeated_txid_is_refused(self):
        twice = (_branch(3, "Bal", commit=5), _branch(3, "Bal", commit=7))
        with pytest.raises(AnalysisError, match="two branches of s0-t3"):
            check_history(twice)


def _run_write_skew(cluster, *, promote):
    """T1 reads Conflict[2] (shard 0) and writes Conflict[4] and
    Conflict[1]; T2 reads Conflict[1] (shard 1) and writes Conflict[3]
    and Conflict[2].  Write sets are disjoint, both snapshots are pinned
    by the consistent-mode begin broadcast before either commits, and the
    two read-vs-write races sit on *different* shards — each shard
    records a single rw edge and only the merge sees the cycle.

    With ``promote`` each reader also identity-writes the row it read,
    turning its rw race into a write-write conflict: T2's promoted write
    of Conflict[1] then collides with T1's committed update and
    first-updater-wins kills T2."""
    conn = cluster.connect()  # consistent mode: snapshots pinned at begin
    outcome = {"t1": "committed", "t2": "committed"}
    try:
        t1 = conn.session()
        t2 = conn.session()
        t1.begin("T1")
        t2.begin("T2")  # both snapshots now predate both commits
        # shard 0 owns even ids, shard 1 odd ids.
        try:
            assert t1.select("Conflict", 2)["Value"] == 0  # read on shard 0
            if promote:
                t1.identity_update("Conflict", 2, "Value")
            t1.update("Conflict", 4, {"Value": 14})  # write on shard 0
            t1.update("Conflict", 1, {"Value": 11})  # write on shard 1
            t1.commit()
        except TransactionAborted:
            outcome["t1"] = "aborted"
        try:
            assert t2.select("Conflict", 1)["Value"] == 0  # read on shard 1
            if promote:
                t2.identity_update("Conflict", 1, "Value")
            t2.update("Conflict", 3, {"Value": 23})  # write on shard 1
            t2.update("Conflict", 2, {"Value": 22})  # write on shard 0
            t2.commit()
        except TransactionAborted:
            outcome["t2"] = "aborted"
            if t2.in_transaction:
                t2.rollback()
        t1.close()
        t2.close()
        return outcome, conn.counters()
    finally:
        conn.close()


class TestCrossShardWriteSkew:
    def test_plain_si_admits_write_skew_no_shard_can_see(self):
        with Cluster(2, customers=4) as cluster:
            outcome, counters = _run_write_skew(cluster, promote=False)
            assert outcome == {"t1": "committed", "t2": "committed"}
            # Disjoint write sets on every shard: both commits are 2PC
            # and neither trips first-updater-wins.
            assert counters["twopc_commits"] == 2
            report = merge_shard_histories(cluster.histories())
            assert not report.serializable
            assert "write-skew" in report.anomalies
            # The defining property: every per-shard history is
            # serializable on its own — the cycle exists only globally.
            assert report.cross_shard_only
            assert all(
                cycle is None for cycle in report.shard_cycles.values()
            )
            assert report.cycle is not None
            assert {edge.kind for edge in report.cycle.edges} == {"rw"}
            cyclists = {edge.source for edge in report.cycle.edges}
            transactions = report.transactions
            assert all(transactions[gid].is_distributed for gid in cyclists)
            assert "invisible to every single shard" in report.describe()

    def test_promotion_restores_acyclicity(self):
        with Cluster(2, customers=4) as cluster:
            outcome, counters = _run_write_skew(cluster, promote=True)
            # The promoted identity writes make the two transactions
            # write-write conflict; first-updater-wins kills the second.
            assert outcome == {"t1": "committed", "t2": "aborted"}
            assert counters["twopc_commits"] == 1
            report = merge_shard_histories(cluster.histories())
            assert report.serializable
            assert report.cross_shard_only is False  # vacuous: no cycle
            # No prepared orphans linger after the aborted 2PC.
            assert cluster.pending_2pc_gtids() == set()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2(a): each shard's SSI certifier sees only "
        "its own rw edges, so a pivot with its in-edge on one shard and "
        "its out-edge on the other commits",
    )
    def test_ssi_aborts_one_side(self):
        with Cluster(2, customers=4, isolation="ssi") as cluster:
            outcome, _ = _run_write_skew(cluster, promote=False)
            assert sorted(outcome.values()) == ["aborted", "committed"]
            assert merge_shard_histories(cluster.histories()).serializable

    def test_global_transactions_carry_their_branches(self):
        with Cluster(2, customers=4) as cluster:
            _run_write_skew(cluster, promote=False)
            report = merge_shard_histories(cluster.histories())
            t1 = next(
                t for t in report.transactions.values() if t.label == "T1"
            )
            assert isinstance(t1, GlobalTransaction)
            assert t1.shards == (0, 1)
            assert [shard for shard, _ in t1.active_branches] == [0, 1]
            assert not t1.is_read_only


def _drive_cluster_anomaly(cluster, strategy_key):
    """The Fekete/O'Neil read-only-anomaly interleaving over the cluster.

    Customer 1 lives on shard 1 of 2; a setup transaction zeroes both
    balances first (the SIGMOD Record 2004 preconditions).  WC pins its
    consistent snapshot before TS commits a $20 deposit; Bal then reads
    the deposit; WC finally bounces a $10 check against its stale total.
    """
    txns = get_strategy(strategy_key).transactions()
    name = customer_name(1)
    conn = cluster.connect()
    outcome = {}
    try:
        with conn.transaction("Setup") as setup:
            setup.update("Saving", 1, {"Balance": 0.0})
            setup.update("Checking", 1, {"Balance": 0.0})

        wc = conn.session()
        ts = conn.session()
        bal = conn.session()
        try:
            wc.begin("WriteCheck")  # snapshot broadcast happens here
            ts.begin("TransactSaving")
            txns.transact_saving(ts, {"N": name, "V": 20.0})
            ts.commit()
            bal.begin("Balance")
            outcome["bal"] = txns.balance(bal, {"N": name})
            bal.commit()
            try:
                penalized = txns.write_check(wc, {"N": name, "V": 10.0})
                wc.commit()
                outcome["wc"] = "penalized" if penalized else "committed"
            except TransactionAborted as exc:
                if wc.in_transaction:
                    wc.rollback()
                outcome["wc"] = type(exc).__name__
        finally:
            wc.close()
            ts.close()
            bal.close()
    finally:
        conn.close()
    return outcome


class TestSmallBankAnomalyOverTheCluster:
    def test_plain_si_reproduces_the_read_only_anomaly(self):
        with Cluster(2, customers=4) as cluster:
            outcome = _drive_cluster_anomaly(cluster, "base-si")
            assert outcome["bal"] == 20.0
            assert outcome["wc"] == "penalized"
            report = merge_shard_histories(cluster.histories())
            assert not report.serializable
            assert "read-only-transaction-anomaly" in report.anomalies
            assert "dangerous-structure" in report.anomalies

    def test_promote_all_eliminates_the_anomaly(self):
        with Cluster(2, customers=4) as cluster:
            outcome = _drive_cluster_anomaly(cluster, "promote-all")
            # WC's promoted read collides with TS's committed write.
            assert outcome["wc"] != "penalized"
            assert outcome["wc"] != "committed"
            report = merge_shard_histories(cluster.histories())
            assert report.serializable

    @pytest.mark.parametrize("strategy_key", ["materialize-all"])
    def test_materialization_also_eliminates_it(self, strategy_key):
        with Cluster(2, customers=4) as cluster:
            outcome = _drive_cluster_anomaly(cluster, strategy_key)
            assert outcome["wc"] not in ("penalized", "committed")
            assert merge_shard_histories(cluster.histories()).serializable
