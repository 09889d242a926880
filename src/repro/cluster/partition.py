"""Hash partitioning of SmallBank by customer (DESIGN.md §12.2).

Every SmallBank table is keyed (directly or via the account name) by a
customer id, so partitioning *by customer* keeps each customer's four
rows — Account, Saving, Checking, Conflict — co-located on one shard.
Single-customer programs (Balance, DepositChecking, TransactSavings,
WriteCheck) are then always single-shard and take the router's 2PC-free
fast path; only the two-customer programs (Amalgamate, and WriteCheck /
SendPayment variants drawing two customers) can cross shards.

The map is static: ``shard = customer_id % shard_count``.  No directory,
no rebalancing — shard count is fixed at cluster build time, which is all
the reproduction needs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine import Database, EngineConfig
from repro.smallbank.schema import (
    ACCOUNT,
    CHECKING,
    CONFLICT,
    SAVING,
    PopulationConfig,
    customer_name,
    smallbank_schemas,
)

#: The column whose value determines the owning shard, per table.
PARTITION_COLUMNS = {
    ACCOUNT: "Name",
    SAVING: "CustomerId",
    CHECKING: "CustomerId",
    CONFLICT: "Id",
}


#: Lock-wait bound (seconds) on every shard of a *multi-shard* cluster.
#: Two cross-shard transactions can each hold a row lock on one shard
#: and wait for the other's on the other; no shard sees the cycle and
#: there is no global deadlock detector, so a bounded wait is what breaks
#: it: the loser gets a retryable :class:`~repro.errors.LockTimeout`.
#: Far above an honest wait (a lock is held for at most a few RPCs).
SHARD_LOCK_TIMEOUT = 0.25


class HashPartitioner:
    """The static customer → shard map shared by router and loaders."""

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def shard_for_customer(self, customer_id: int) -> int:
        return customer_id % self.shard_count

    @staticmethod
    def customer_from_key(table: str, key) -> int:
        """Recover the customer id from a table's partition-column value.

        ``Account`` is keyed by name (``cust0000042``); the other tables
        carry the customer id directly.
        """
        if table == ACCOUNT:
            name = str(key)
            if not name.startswith("cust") or not name[4:].isdigit():
                raise ValueError(
                    f"Account name {key!r} does not encode a customer id"
                )
            return int(name[4:])
        return int(key)

    def shard_for_row(self, table: str, key) -> int:
        """The shard owning the row of ``table`` with partition-key ``key``."""
        if table not in PARTITION_COLUMNS:
            raise ValueError(f"no partition rule for table {table!r}")
        return self.shard_for_customer(self.customer_from_key(table, key))


def build_shard_database(
    config: Optional[EngineConfig] = None,
    population: Optional[PopulationConfig] = None,
    *,
    shard_index: int = 0,
    shard_count: int = 1,
) -> Database:
    """One shard's slice of the SmallBank population.

    Draws from the seeded RNG in *exactly* the order of
    :func:`repro.smallbank.schema.build_database` — both balances for
    every customer, whether or not the customer lands here — so the
    union of all shards is bit-identical to the single-node population
    (``cluster total_money == local total_money`` under the same seed).
    One shard of several waits at most :data:`SHARD_LOCK_TIMEOUT` for a
    row lock unless ``config`` sets its own bound.
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} out of range for {shard_count} shards"
        )
    population = population or PopulationConfig()
    config = config or EngineConfig.postgres()
    if shard_count > 1 and config.lock_timeout is None:
        config = config.with_lock_timeout(SHARD_LOCK_TIMEOUT)
    partitioner = HashPartitioner(shard_count)
    rng = random.Random(population.seed)
    db = Database(smallbank_schemas(), config)
    for cid in range(1, population.customers + 1):
        saving = round(
            rng.uniform(population.min_saving, population.max_saving), 2
        )
        checking = round(
            rng.uniform(population.min_checking, population.max_checking), 2
        )
        if partitioner.shard_for_customer(cid) != shard_index:
            continue
        db.load_row(ACCOUNT, {"Name": customer_name(cid), "CustomerId": cid})
        db.load_row(SAVING, {"CustomerId": cid, "Balance": saving})
        db.load_row(CHECKING, {"CustomerId": cid, "Balance": checking})
        db.load_row(CONFLICT, {"Id": cid, "Value": 0})
    return db
