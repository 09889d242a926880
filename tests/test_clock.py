"""Tests for the logical clock, ``Database.last_ts``: one integer the
engine ticks under its commit mutex at every begin and commit."""

from __future__ import annotations

import threading

from repro.engine import Column, Database, EngineConfig, TableSchema

T = TableSchema(name="T", columns=(Column("Id", "int"),), primary_key="Id")


def test_timestamps_start_after_bootstrap():
    db = Database([T], EngineConfig.postgres())
    db.load_row("T", {"Id": 1})
    assert db.last_ts == 0  # bootstrap rows carry timestamp 0
    assert db.catalog.table("T").visible(1, 0).commit_ts == 0
    assert db.begin("first").start_ts == 1 == db.last_ts


def test_timestamps_strictly_increase():
    db = Database([T], EngineConfig.postgres())
    values = []
    for key in range(50):
        txn = db.begin("tick")
        db.write(txn, "T", key, {"Id": key})
        db.commit(txn)
        values += [txn.start_ts, txn.commit_ts]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert db.last_ts == values[-1]


def test_clock_is_thread_safe():
    db = Database([T], EngineConfig.postgres())
    seen: list[int] = []
    lock = threading.Lock()

    def worker() -> None:
        local = []
        for _ in range(250):
            txn = db.begin("tick")
            db.commit(txn)
            local += [txn.start_ts, txn.commit_ts]
        with lock:
            seen.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 4000
    assert len(set(seen)) == 4000
