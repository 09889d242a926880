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

import re

# The shard loader and its lock bound live next to the population, so a
# shard process never imports this package; both are re-exported here.
from repro.smallbank.schema import (
    ACCOUNT,
    CHECKING,
    CONFLICT,
    SAVING,
    SHARD_LOCK_TIMEOUT,
    build_shard_database,
)

#: The column whose value determines the owning shard, per table.
PARTITION_COLUMNS = {
    ACCOUNT: "Name",
    SAVING: "CustomerId",
    CHECKING: "CustomerId",
    CONFLICT: "Id",
}

#: An Account name and the customer id it encodes: ``cust0000042`` -> 42.
_ACCOUNT_NAME = re.compile(r"cust(\d+)")


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
            named = _ACCOUNT_NAME.fullmatch(str(key))
            if named is None:
                raise ValueError(
                    f"Account name {key!r} does not encode a customer id"
                )
            return int(named[1])
        return int(key)

    def shard_for_name(self, name) -> int:
        """The shard of the customer an Account name encodes, in one
        frame: what the router routes a whole program by."""
        named = _ACCOUNT_NAME.fullmatch(str(name))
        if named is None:
            raise ValueError(f"Account name {name!r} does not encode a customer id")
        return int(named[1]) % self.shard_count

    def shard_for_row(self, table: str, key) -> int:
        """The shard owning the row of ``table`` with partition-key ``key``."""
        if table == ACCOUNT:
            return self.shard_for_name(key)
        if table not in PARTITION_COLUMNS:
            raise ValueError(f"no partition rule for table {table!r}")
        return self.shard_for_customer(self.customer_from_key(table, key))
