"""Shared fixtures: a miniature two-table bank database.

The tests that exercise raw engine semantics use this small schema directly;
SmallBank-specific tests build the real benchmark schema from
:mod:`repro.smallbank`.
"""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, EngineConfig, TableSchema


def bank_schemas() -> list[TableSchema]:
    return [
        TableSchema(
            name="Saving",
            columns=(Column("CustomerId", "int"), Column("Balance", "numeric")),
            primary_key="CustomerId",
        ),
        TableSchema(
            name="Checking",
            columns=(Column("CustomerId", "int"), Column("Balance", "numeric")),
            primary_key="CustomerId",
        ),
        TableSchema(
            name="Account",
            columns=(Column("Name", "text"), Column("CustomerId", "int")),
            primary_key="Name",
            unique=("CustomerId",),
        ),
    ]


def make_bank_db(config: EngineConfig | None = None, customers: int = 3) -> Database:
    db = Database(bank_schemas(), config)
    for cid in range(1, customers + 1):
        db.load_row("Account", {"Name": f"cust{cid}", "CustomerId": cid})
        db.load_row("Saving", {"CustomerId": cid, "Balance": 100.0})
        db.load_row("Checking", {"CustomerId": cid, "Balance": 50.0})
    return db


def assert_no_shared_mutable_state(a: Database, b: Database) -> None:
    """Two databases over one bootstrap image may share the image — its
    ``key -> Version`` dicts (``Table.base``, never written) and frozen
    versions — and nothing else: no chain, no row dict, no index dict."""
    for table in a.catalog:
        twin = b.catalog.table(table.schema.name)
        assert twin.rows is not table.rows
        assert not {id(c) for c in table.rows.values()} & {
            id(c) for c in twin.rows.values()
        }
        assert not {id(c.versions) for c in table.rows.values()} & {
            id(c.versions) for c in twin.rows.values()
        }
        assert twin._indexes is not table._indexes
        for column, index in table._indexes.items():
            assert twin._indexes[column] is not index
        assert twin.cc_write_ts is not table.cc_write_ts
    assert a.wal is not b.wal and a.locks is not b.locks


@pytest.fixture
def db() -> Database:
    """A PostgreSQL-style SI database with three customers."""
    return make_bank_db()


@pytest.fixture
def commercial_db() -> Database:
    """Commercial-platform SI (SFU acts as a concurrency-control write)."""
    return make_bank_db(EngineConfig.commercial())


@pytest.fixture
def s2pl_db() -> Database:
    return make_bank_db(EngineConfig.s2pl())


@pytest.fixture
def ssi_db() -> Database:
    return make_bank_db(EngineConfig.ssi())
