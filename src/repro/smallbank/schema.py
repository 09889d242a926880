"""SmallBank schema and population (Section III-A of the paper).

Three application tables::

    Account(Name, CustomerId)      -- PK Name, unique non-null CustomerId
    Saving(CustomerId, Balance)    -- PK CustomerId
    Checking(CustomerId, Balance)  -- PK CustomerId

plus the auxiliary ``Conflict(Id, Value)`` table used by materialization
strategies, pre-populated with one row per customer ("we must initialize
Conflict with one row for every CustomerId, before starting the benchmark").

The paper populates 18 000 randomly generated customers; the default here
is smaller so tests stay fast, and the benchmark harness passes the paper's
numbers explicitly.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.engine import (
    BootstrapImage,
    Column,
    Database,
    EngineConfig,
    TableSchema,
)

ACCOUNT = "Account"
SAVING = "Saving"
CHECKING = "Checking"
CONFLICT = "Conflict"

#: Number of customers in the paper's experiments.
PAPER_CUSTOMERS = 18_000
#: Paper hotspot sizes: normal and high contention.
PAPER_HOTSPOT = 1_000
PAPER_HOTSPOT_HIGH_CONTENTION = 10


def customer_name(customer_id: int) -> str:
    """The account name for a customer id (deterministic, unique)."""
    return f"cust{customer_id:07d}"


def smallbank_schemas() -> list[TableSchema]:
    """Schemas for the three application tables plus ``Conflict``."""
    return [
        TableSchema(
            name=ACCOUNT,
            columns=(Column("Name", "text"), Column("CustomerId", "int")),
            primary_key="Name",
            unique=("CustomerId",),
        ),
        TableSchema(
            name=SAVING,
            columns=(Column("CustomerId", "int"), Column("Balance", "numeric")),
            primary_key="CustomerId",
        ),
        TableSchema(
            name=CHECKING,
            columns=(Column("CustomerId", "int"), Column("Balance", "numeric")),
            primary_key="CustomerId",
        ),
        TableSchema(
            name=CONFLICT,
            columns=(Column("Id", "int"), Column("Value", "int")),
            primary_key="Id",
        ),
    ]


@dataclass(frozen=True)
class PopulationConfig:
    """How to populate a SmallBank database."""

    customers: int = 100
    min_saving: float = 1_000.0
    max_saving: float = 5_000.0
    min_checking: float = 100.0
    max_checking: float = 500.0
    seed: int = 20080407  # ICDE 2008, week of the conference


#: How many population images stay memoised (least recently used goes
#: first).  ``run_replicated`` walks the seeds ``s, s+1000, ...`` of one
#: point after another, so anything below the paper's five repetitions
#: would never hit; 3 600 customers are ~5 MB an image.
IMAGE_MEMO_BOUND = 8

_images: "OrderedDict[tuple, BootstrapImage]" = OrderedDict()
_images_lock = threading.Lock()


def populated_database(
    config: Optional[EngineConfig],
    population: PopulationConfig,
    shard_index: int,
    shard_count: int,
) -> Database:
    """The customers ``cid % shard_count == shard_index`` of ``population``
    (the map of :class:`repro.cluster.partition.HashPartitioner`).

    Balances are drawn uniformly from the configured ranges with a seeded
    RNG — both balances for every customer, whether or not the customer
    lands on this shard — so every run sees the same initial state and
    the union of all shards is bit-identical to the 1-of-1 build.

    The first build of a ``(population, shard_index, shard_count)`` loads
    row by row and memoises the database's bootstrap image; later ones
    instantiate from it (their own index dicts and, for the rows they
    write, their own chains over the same frozen versions), so nothing
    one database does shows in the next.
    """
    memo_key = (population, shard_index, shard_count)
    with _images_lock:
        image = _images.get(memo_key)
        if image is not None:
            _images.move_to_end(memo_key)
    if image is not None:
        return Database(smallbank_schemas(), config, image=image)
    rng = random.Random(population.seed)
    db = Database(smallbank_schemas(), config)
    for cid in range(1, population.customers + 1):
        saving = round(
            rng.uniform(population.min_saving, population.max_saving), 2
        )
        checking = round(
            rng.uniform(population.min_checking, population.max_checking), 2
        )
        if cid % shard_count != shard_index:
            continue
        db.load_row(ACCOUNT, {"Name": customer_name(cid), "CustomerId": cid})
        db.load_row(SAVING, {"CustomerId": cid, "Balance": saving})
        db.load_row(CHECKING, {"CustomerId": cid, "Balance": checking})
        db.load_row(CONFLICT, {"Id": cid, "Value": 0})
    with _images_lock:
        _images[memo_key] = db.bootstrap_image()
        while len(_images) > IMAGE_MEMO_BOUND:
            _images.popitem(last=False)
    return db


def build_database(
    config: Optional[EngineConfig] = None,
    population: Optional[PopulationConfig] = None,
) -> Database:
    """A populated SmallBank database (see :func:`populated_database`).

    Generous initial balances keep business-rule rollbacks (overdraws)
    rare, as in the paper's workload.
    """
    return populated_database(config, population or PopulationConfig(), 0, 1)


def total_money(db: Database) -> float:
    """Sum of all balances — conserved by DC/TS/Amg, changed by WC only.

    Used by integrity tests: a serial replay must reach the same total.
    """
    txn = db.begin("audit")
    total = 0.0
    for table in (SAVING, CHECKING):
        for _key, row in db.scan(txn, table):
            total += row["Balance"]
    db.commit(txn)
    return round(total, 2)
