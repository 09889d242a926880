"""MVSG construction and cycle detection on hand-built histories."""

from __future__ import annotations

from repro.analysis import (
    CommittedTransaction,
    MultiVersionSerializationGraph,
    check_history,
    classify_cycle,
)
from repro.engine.transaction import PredicateRead

X = ("T", "x")
Y = ("T", "y")


def txn(
    txid,
    *,
    start=None,
    commit=None,
    reads=(),
    writes=(),
    label="",
    read_only_label=False,
    predicates=(),
):
    return CommittedTransaction(
        txid=txid,
        label=label or f"T{txid}",
        start_ts=start if start is not None else txid * 10,
        snapshot_ts=start if start is not None else txid * 10,
        commit_ts=commit if commit is not None else txid * 10 + 5,
        reads=tuple(reads),
        writes=tuple(writes),
        cc_writes=(),
        predicate_reads=tuple(predicates),
    )


class TestEdges:
    def test_wr_edge_from_version_writer_to_reader(self):
        t1 = txn(1, start=1, commit=2, writes=(X,))
        t2 = txn(2, start=3, commit=4, reads=((X, 2),))
        graph = MultiVersionSerializationGraph([t1, t2])
        assert any(
            e.kind == "wr" and e.source == 1 and e.target == 2
            for e in graph.edges
        )
        assert graph.find_cycle() is None

    def test_ww_edges_follow_version_order(self):
        t1 = txn(1, start=1, commit=2, writes=(X,))
        t2 = txn(2, start=3, commit=4, writes=(X,))
        t3 = txn(3, start=5, commit=6, writes=(X,))
        graph = MultiVersionSerializationGraph([t1, t2, t3])
        ww = [(e.source, e.target) for e in graph.edges if e.kind == "ww"]
        assert ww == [(1, 2), (2, 3)]

    def test_rw_edge_to_next_version_writer(self):
        t1 = txn(1, start=1, commit=10, writes=(X,))
        # t2 read the bootstrap version (ts 0) of X while t1 overwrote it.
        t2 = txn(2, start=2, commit=4, reads=((X, 0),))
        graph = MultiVersionSerializationGraph([t1, t2])
        assert any(
            e.kind == "rw" and e.source == 2 and e.target == 1
            for e in graph.edges
        )

    def test_rw_targets_immediate_successor_only(self):
        t1 = txn(1, start=1, commit=2, writes=(X,))
        t2 = txn(2, start=3, commit=4, writes=(X,))
        reader = txn(3, start=1, commit=5, reads=((X, 0),))
        graph = MultiVersionSerializationGraph([t1, t2, reader])
        rw = [(e.source, e.target) for e in graph.edges if e.kind == "rw"]
        assert (3, 1) in rw and (3, 2) not in rw

    def test_no_self_edges(self):
        t1 = txn(1, start=1, commit=2, reads=((X, 0),), writes=(X,))
        graph = MultiVersionSerializationGraph([t1])
        assert graph.edges == []


class TestCycles:
    def write_skew_history(self):
        # Both read X and Y at snapshot 0; t1 writes X, t2 writes Y.
        t1 = txn(1, start=1, commit=5, reads=((X, 0), (Y, 0)), writes=(X,))
        t2 = txn(2, start=2, commit=6, reads=((X, 0), (Y, 0)), writes=(Y,))
        return [t1, t2]

    def test_write_skew_cycle_detected(self):
        graph = MultiVersionSerializationGraph(self.write_skew_history())
        cycle = graph.find_cycle()
        assert cycle is not None
        assert sorted(cycle.kinds) == ["rw", "rw"]
        assert check_history(self.write_skew_history()).serial_order is None

    def test_write_skew_classified(self):
        graph = MultiVersionSerializationGraph(self.write_skew_history())
        cycle = graph.find_cycle()
        labels = classify_cycle(cycle, graph.transactions)
        assert "write-skew" in labels
        assert "dangerous-structure" in labels

    def test_serial_history_has_topological_order(self):
        t1 = txn(1, start=1, commit=2, writes=(X,))
        t2 = txn(2, start=3, commit=4, reads=((X, 2),), writes=(Y,))
        t3 = txn(3, start=5, commit=6, reads=((Y, 4),))
        report = check_history([t3, t1, t2])
        assert report.serial_order == ("s0-t1", "s0-t2", "s0-t3")

    def test_three_party_cycle(self):
        # t1 writes X; t3 read X before t1 (rw t3->t1); t1 -> wr -> t2
        # reads X; t2 writes Y that t3 read (rw t2? ...) build directly:
        t1 = txn(1, start=3, commit=8, writes=(X,))
        t2 = txn(2, start=9, commit=12, reads=((X, 8),), writes=(Y,))
        t3 = txn(3, start=1, commit=4, reads=((X, 0), (Y, 0)), writes=(("T", "z"),))
        graph = MultiVersionSerializationGraph([t1, t2, t3])
        cycle = graph.find_cycle()
        # t3 -rw-> t1 (read X@0, t1 wrote X), t1 -wr-> t2, t2 ... no edge
        # back to t3 from t2?  t3 read Y@0 and t2 wrote Y -> rw t3->t2.
        # No cycle: t3 points at both, nothing returns to t3.
        assert cycle is None

    def test_read_only_anomaly_shape(self):
        """The Fekete/O'Neil/O'Neil read-only anomaly: the cycle includes a
        read-only transaction."""
        S = ("Saving", 1)
        C = ("Checking", 1)
        ts = txn(1, start=3, commit=4, reads=((S, 0),), writes=(S,), label="TS")
        bal = txn(
            2, start=5, commit=6, reads=((S, 4), (C, 0)), label="Bal"
        )
        wc = txn(
            3, start=2, commit=7, reads=((S, 0), (C, 0)), writes=(C,), label="WC"
        )
        graph = MultiVersionSerializationGraph([ts, bal, wc])
        cycle = graph.find_cycle()
        assert cycle is not None
        labels = classify_cycle(cycle, graph.transactions)
        assert "read-only-transaction-anomaly" in labels
        assert "dangerous-structure" in labels

    def test_check_history_facade(self):
        report = check_history(self.write_skew_history())
        assert not report.serializable
        assert "write-skew" in report.anomalies
        assert "NOT serializable" in report.describe()
        ok = check_history([txn(1, writes=(X,))])
        assert ok.serializable and ok.serial_order == ("s0-t1",)


class TestPhantomEdges:
    def test_predicate_reader_gets_conservative_edge(self):
        reader = txn(
            1,
            start=1,
            commit=3,
            predicates=(PredicateRead("T", "v > 0", ()),),
        )
        writer = txn(2, start=2, commit=5, writes=(X,))
        graph = MultiVersionSerializationGraph(
            [reader, writer], phantom_edges=True
        )
        assert any(e.kind == "predicate-rw" for e in graph.edges)

    def test_phantom_edges_off_by_default(self):
        reader = txn(
            1, start=1, commit=3, predicates=(PredicateRead("T", "v > 0", ()),)
        )
        writer = txn(2, start=2, commit=5, writes=(X,))
        graph = MultiVersionSerializationGraph([reader, writer])
        assert not any(e.kind == "predicate-rw" for e in graph.edges)

    def test_earlier_writer_not_phantom_suspect(self):
        reader = txn(
            1, start=10, commit=12, predicates=(PredicateRead("T", "p", ()),)
        )
        writer = txn(2, start=1, commit=2, writes=(X,))
        graph = MultiVersionSerializationGraph(
            [reader, writer], phantom_edges=True
        )
        assert not any(e.kind == "predicate-rw" for e in graph.edges)
