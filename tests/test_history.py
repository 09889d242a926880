"""Textbook histories from the SI literature, checked in one line each."""

from __future__ import annotations

import pytest

from repro.analysis.history import check_history_text, parse_history
from repro.errors import AnalysisError


class TestClassicHistories:
    def test_serial_history_is_serializable(self):
        report = check_history_text("r1(x) w1(x) c1 r2(x) w2(x) c2")
        assert report.serializable
        assert report.serial_order == ("s0-t1", "s0-t2")

    def test_berenson_write_skew(self):
        """A5B from 'A Critique of ANSI SQL Isolation Levels' (1995)."""
        report = check_history_text(
            "r1(x) r1(y) r2(x) r2(y) w1(x) w2(y) c1 c2"
        )
        assert not report.serializable
        assert "write-skew" in report.anomalies

    def test_fekete_oneil_read_only_anomaly(self):
        """SIGMOD Record 2004 (reference [19]): x=savings, y=checking.

        H: R2(x0,0) R2(y0,0) R1(x0,0) W1(x1,20) C1 R3(x1,20) R3(y0,0) C3
           W2(y2,-11) C2
        """
        report = check_history_text(
            "r2(x) r2(y) r1(x) w1(x) c1 r3(x) r3(y) c3 w2(y) c2"
        )
        assert not report.serializable
        assert "read-only-transaction-anomaly" in report.anomalies
        assert "dangerous-structure" in report.anomalies

    def test_removing_the_reader_makes_it_serializable(self):
        """The same history without T3 — SI orders T2 before T1."""
        report = check_history_text("r2(x) r2(y) r1(x) w1(x) c1 w2(y) c2")
        assert report.serializable

    def test_lost_update_shape_is_a_cycle(self):
        """Two read-modify-writes on the same item from the same snapshot
        would be a lost update; SI prevents it, but the checker must flag
        the history if an engine ever produced it."""
        report = check_history_text("r1(x) r2(x) w1(x) c1 w2(x) c2")
        assert not report.serializable

    def test_si_read_consistency(self):
        """A reader spanning a committed writer sees the old version and
        orders cleanly before it."""
        report = check_history_text("r1(x) w2(x) c2 r1(x) r1(y) c1")
        assert report.serializable

    def test_aborted_transactions_are_ignored(self):
        report = check_history_text(
            "r1(x) r1(y) r2(x) r2(y) w1(x) w2(y) a1 c2"
        )
        assert report.serializable
        assert report.committed_count == 1


class TestSnapshotIsolationVerdict:
    """Cerone & Gotsman: a history is SI iff every MVSG cycle has two
    adjacent rw edges — plain SI's own anomalies pass, a lost update
    does not."""

    def test_lost_update_is_not_si(self):
        report = check_history_text("r1(x) r2(x) w1(x) c1 w2(x) c2")
        assert not report.snapshot_isolated
        assert sorted(report.si_cycle.kinds) == ["rw", "ww"]
        assert "NOT SI" in report.describe()

    @pytest.mark.parametrize(
        "text",
        [
            "r1(x) r1(y) r2(x) r2(y) w1(x) w2(y) c1 c2",
            "r2(x) r2(y) r1(x) w1(x) c1 r3(x) r3(y) c3 w2(y) c2",
        ],
        ids=["berenson-write-skew", "fekete-oneil-read-only-anomaly"],
    )
    def test_si_anomalies_are_si_but_not_serializable(self, text):
        report = check_history_text(text)
        assert not report.serializable
        assert report.snapshot_isolated and report.si_cycle is None
        assert report.describe().endswith("; SI")


class TestParsing:
    def test_reads_resolve_against_snapshot(self):
        committed = parse_history("w1(x) c1 r2(x) c2 r3(x) c3")
        t2 = next(t for t in committed if t.txid == 2)
        t1 = next(t for t in committed if t.txid == 1)
        assert t2.read_version(("H", "x")) == t1.commit_ts

    def test_snapshot_taken_at_first_operation(self):
        committed = parse_history("r2(y) w1(x) c1 r2(x) c2")
        t2 = next(t for t in committed if t.txid == 2)
        # T2 started before T1 committed: it reads the bootstrap version.
        assert t2.read_version(("H", "x")) == 0

    def test_own_write_read_excluded(self):
        committed = parse_history("w1(x) r1(x) c1")
        (t1,) = committed
        assert t1.reads == ()

    def test_bad_token_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("r1(x) boom c1")

    def test_operation_after_commit_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("r1(x) c1 w1(y) c1")

    def test_unfinished_transaction_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("r1(x) w2(y) c2")

    def test_commit_without_operations_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("c1")

    def test_double_commit_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("r1(x) c1 c1")

    def test_empty_history_rejected(self):
        with pytest.raises(AnalysisError):
            parse_history("   ")
