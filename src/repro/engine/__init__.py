"""The MVCC engine substrate: storage, locks, transactions, sessions.

Quick tour::

    from repro.engine import Database, EngineConfig, Session, TableSchema, Column

    schema = TableSchema(
        name="Checking",
        columns=(Column("CustomerId", "int"), Column("Balance", "numeric")),
        primary_key="CustomerId",
    )
    db = Database([schema], EngineConfig.postgres())
    db.load_row("Checking", {"CustomerId": 1, "Balance": 100})

    conn = repro.connect("local://", database=db)
    with conn.transaction("deposit") as session:
        session.update(
            "Checking", 1, lambda row: {"Balance": row["Balance"] + 10}
        )

(:func:`repro.connect` is the blessed session entry point; constructing a
:class:`Session` directly is deprecated.)
"""

from repro.engine.config import (
    EngineConfig,
    IsolationLevel,
    SfuSemantics,
    WriteConflictPolicy,
)
from repro.engine.engine import Database, Row, WaitOn
from repro.engine.recovery import recover_database, replay_records
from repro.engine.locks import LockManager, LockMode, RowId
from repro.engine.session import (
    NoWaitWaiter,
    Session,
    ThreadedWaiter,
    Waiter,
    WouldBlock,
)
from repro.engine.storage import (
    BootstrapImage,
    Catalog,
    Column,
    Table,
    TableSchema,
)
from repro.engine.transaction import OWN_WRITE, Transaction, TxnStatus
from repro.engine.versions import Version, VersionChain
from repro.engine.wal import RedoEntry, WalRecord, WriteAheadLog

__all__ = [
    "BootstrapImage",
    "Catalog",
    "Column",
    "Database",
    "EngineConfig",
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "NoWaitWaiter",
    "OWN_WRITE",
    "RedoEntry",
    "Row",
    "recover_database",
    "replay_records",
    "RowId",
    "Session",
    "SfuSemantics",
    "Table",
    "TableSchema",
    "ThreadedWaiter",
    "Transaction",
    "TxnStatus",
    "Version",
    "VersionChain",
    "WaitOn",
    "Waiter",
    "WalRecord",
    "WouldBlock",
    "WriteAheadLog",
    "WriteConflictPolicy",
]
