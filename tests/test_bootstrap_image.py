"""The bootstrap image: populate once, instantiate many (DESIGN.md §8).

A database built from a memoised image must be indistinguishable from one
loaded row by row, and nothing it does afterwards — commits, further
``load_row`` calls, vacuum, a crash and its recovery — may show in a
sibling built from the same image or in an instance built later.  The
timing claims are pinned by their deterministic stand-ins: a warm
``build_database`` validates no row, and it makes no version chain and
only a table's worth of collector-tracked objects, however many rows.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace

import pytest

import repro.smallbank.schema as population_memo
from repro.cluster import build_shard_database
from repro.engine import Database, EngineConfig, Session, TableSchema, VersionChain
from repro.errors import IntegrityError, ReproError, SchemaError
from repro.sim.runner import SimulationConfig, run_once, run_replicated
from repro.smallbank import (
    ACCOUNT,
    CHECKING,
    CONFLICT,
    SAVING,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
    smallbank_schemas,
    total_money,
)
from repro.workload.mix import UNIFORM_MIX, HotspotConfig, ParameterGenerator

from tests.conftest import (
    assert_no_shared_mutable_state,
    bank_schemas,
    make_bank_db,
)

POPULATION = PopulationConfig(customers=24, seed=11)
TABLES = (ACCOUNT, SAVING, CHECKING, CONFLICT)


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test decides for itself which build is the cold one."""
    population_memo._images.clear()
    yield
    population_memo._images.clear()


def contents(db: Database) -> dict:
    """All a client can learn about the population: every table's rows in
    scan order, and both unique look-ups of every account."""
    txn = db.begin("contents")
    try:
        seen = {
            table: [(key, dict(row)) for key, row in db.scan(txn, table)]
            for table in TABLES
        }
        seen["by-name"] = [
            db.lookup_unique(txn, ACCOUNT, "Name", key)
            for key, _row in seen[ACCOUNT]
        ]
        seen["by-customer"] = [
            db.lookup_unique(txn, ACCOUNT, "CustomerId", row["CustomerId"])
            for _key, row in seen[ACCOUNT]
        ]
        return seen
    finally:
        db.commit(txn)


def load_order(db: Database) -> dict:
    return {table.schema.name: list(table.keys()) for table in db.catalog}


def population_order(customers) -> dict:
    """What ``load_order`` reads after loading ``customers`` in order."""
    ids = list(customers)
    return {
        ACCOUNT: [customer_name(c) for c in ids],
        SAVING: ids,
        CHECKING: ids,
        CONFLICT: ids,
    }


def deposit(db: Database, customer: int, amount: float) -> None:
    session = Session(db)
    session.begin("deposit")
    session.update(
        CHECKING, customer, lambda row: {"Balance": row["Balance"] + amount}
    )
    session.commit()


class TestImageBuiltEqualsColdBuilt:
    @pytest.mark.parametrize(
        "index, count",
        [(0, 1)]
        + [(i, 2) for i in range(2)]
        + [(i, 4) for i in range(4)],
    )
    def test_same_rows_lookups_scan_order_and_money(self, index, count):
        def build():
            return build_shard_database(
                None, POPULATION, shard_index=index, shard_count=count
            )

        cold = build()
        assert len(population_memo._images) == 1
        warm = build()
        assert len(population_memo._images) == 1
        assert contents(warm) == contents(cold)
        mine = [c for c in range(1, 25) if c % count == index]
        assert load_order(cold) == population_order(mine) == load_order(warm)
        assert total_money(warm) == total_money(cold)
        assert len(contents(cold)[ACCOUNT]) == len(mine)
        assert_no_shared_mutable_state(cold, warm)

    def test_unsharded_build_is_the_one_of_one_shard(self):
        cold = build_database(None, POPULATION)
        warm = build_shard_database(None, POPULATION)
        assert len(population_memo._images) == 1
        assert contents(warm) == contents(cold)

    def test_engine_config_is_per_instance_not_per_image(self):
        si = build_database(EngineConfig.postgres(), POPULATION)
        s2pl = build_database(EngineConfig.s2pl(), POPULATION)
        assert len(population_memo._images) == 1
        assert si.config.isolation is not s2pl.config.isolation
        assert contents(si) == contents(s2pl)

    def test_warm_build_validates_no_row(self, monkeypatch):
        build_database(None, POPULATION)
        calls = []
        validate = TableSchema.validate_row

        def counting(self, row):
            calls.append(self.name)
            return validate(self, row)

        monkeypatch.setattr(TableSchema, "validate_row", counting)
        warm = build_database(None, POPULATION)
        assert calls == []
        assert len(warm.bootstrap_image()) == 4 * POPULATION.customers
        population_memo._images.clear()
        build_database(None, POPULATION)
        assert len(calls) == 4 * POPULATION.customers


class TestSiblingIsolation:
    def test_commits_stay_with_their_instance(self):
        first = build_database(None, POPULATION)
        before = contents(first)
        sibling = build_database(None, POPULATION)
        deposit(first, 3, 100.0)
        session = Session(first)
        session.begin("close-account")
        session.delete(ACCOUNT, customer_name(4))
        session.insert(ACCOUNT, {"Name": "newcomer", "CustomerId": 4})
        session.commit()
        assert contents(first) != before
        assert contents(sibling) == before
        assert contents(build_database(None, POPULATION)) == before

    def test_extra_load_row_stays_with_its_instance(self):
        first = build_database(None, POPULATION)  # cold: owns what it memoised
        sibling = build_database(None, POPULATION)
        before = contents(sibling)
        for db, cid in ((first, 901), (sibling, 902)):
            db.load_row(ACCOUNT, {"Name": customer_name(cid), "CustomerId": cid})
            db.load_row(SAVING, {"CustomerId": cid, "Balance": 1.0})
        later = build_database(None, POPULATION)
        assert contents(later) == before
        assert len(later.bootstrap_image()) == 4 * POPULATION.customers
        for db, mine, other in ((first, 901, 902), (sibling, 902, 901)):
            txn = db.begin("probe")
            assert db.read(txn, SAVING, mine) == {"CustomerId": mine, "Balance": 1.0}
            assert db.read(txn, SAVING, other) is None
            assert db.lookup_unique(txn, ACCOUNT, "CustomerId", mine) is not None
            assert db.lookup_unique(txn, ACCOUNT, "CustomerId", other) is None
            db.commit(txn)
            # The extra rows are part of that instance's checkpoint.
            recovered = db.recover()
            txn = recovered.begin("probe")
            assert recovered.read(txn, SAVING, mine) is not None
            assert recovered.read(txn, SAVING, other) is None
            recovered.commit(txn)
        with pytest.raises(IntegrityError):
            first.load_row(SAVING, {"CustomerId": 901, "Balance": 2.0})

    def test_vacuum_prunes_only_its_own_chains(self):
        first = build_database(None, POPULATION)
        sibling = build_database(None, POPULATION)
        before = contents(sibling)
        for _ in range(3):
            deposit(first, 5, 1.0)
            deposit(sibling, 5, 2.0)
        assert first.vacuum() == 3
        assert len(first.catalog.table(CHECKING).chain(5)) == 1
        assert len(sibling.catalog.table(CHECKING).chain(5)) == 4
        assert contents(build_database(None, POPULATION)) == before

    def test_crash_and_recovery_touch_nobody_else(self):
        first = build_database(None, POPULATION)
        sibling = build_database(None, POPULATION)
        before = contents(sibling)
        deposit(first, 7, 10.0)
        expected = contents(first)
        first.crash()
        recovered = first.recover()
        assert contents(recovered) == expected
        assert contents(sibling) == before
        deposit(sibling, 7, 1.0)  # the sibling never noticed the crash
        assert_no_shared_mutable_state(first, recovered)
        assert_no_shared_mutable_state(recovered, sibling)
        deposit(recovered, 7, 5.0)
        assert contents(recovered) != expected
        assert contents(first.recover()) == expected
        assert contents(build_database(None, POPULATION)) == before


class TestEngineImage:
    def test_instance_from_image_equals_loaded_instance(self):
        loaded = make_bank_db(customers=4)
        image = loaded.bootstrap_image()
        assert len(image) == 12
        twin = Database(bank_schemas(), loaded.config, image=image)
        ids = [1, 2, 3, 4]
        assert load_order(loaded) == load_order(twin) == {
            "Saving": ids, "Checking": ids, "Account": [f"cust{c}" for c in ids]
        }
        assert_no_shared_mutable_state(loaded, twin)
        txn = twin.begin("probe")
        assert twin.lookup_unique(txn, "Account", "CustomerId", 2) == (
            "cust2",
            {"Name": "cust2", "CustomerId": 2},
        )
        twin.commit(txn)
        # The versions themselves are the shared, frozen part.
        assert twin.catalog.table("Saving").chain(1).latest() is (
            loaded.catalog.table("Saving").chain(1).latest()
        )

    def test_handed_out_image_never_changes(self):
        db = make_bank_db(customers=2)
        image = db.bootstrap_image()
        db.load_row("Saving", {"CustomerId": 9, "Balance": 9.0})
        assert len(image) == 6
        assert len(db.bootstrap_image()) == 7
        assert 9 not in Database(bank_schemas(), image=image).catalog.table(
            "Saving"
        ).keys()

    def test_image_for_another_schema_is_refused(self):
        image = make_bank_db().bootstrap_image()
        saving, checking, account = bank_schemas()
        keyed_by_customer = replace(
            account, primary_key="CustomerId", unique=("Name",)
        )
        with pytest.raises(SchemaError, match="different schema"):
            Database([saving, checking, keyed_by_customer], image=image)
        # Same-shaped tables of another application are the same schema.
        Database(smallbank_schemas(), image=image)
        with pytest.raises(SchemaError, match="unknown table"):
            Database(bank_schemas()[:2], image=image)


STRATEGIES = ("base-si", "promote-all", "materialize-all")
POINT = SimulationConfig(
    mpl=8, customers=400, hotspot=40, ramp_up=0.2, measure=0.6
)


class TestSimulatorOverTheMemo:
    @pytest.mark.parametrize("seed", [1, 2, 1003])
    def test_cold_and_warm_points_are_equal(self, seed):
        for strategy in STRATEGIES:
            config = replace(POINT, strategy=strategy, seed=seed)
            population_memo._images.clear()
            cold = run_once(config)
            assert len(population_memo._images) == 1
            warm = run_once(config)
            assert warm == cold
            assert cold.total_commits > 0

    def test_five_repetitions_hit_and_stay_within_the_bound(self, monkeypatch):
        assert population_memo.IMAGE_MEMO_BOUND >= 5
        first = run_replicated(POINT, repetitions=5)
        assert len(population_memo._images) == 5
        loads = []
        load_row = Database.load_row
        monkeypatch.setattr(
            Database,
            "load_row",
            lambda self, table, row: loads.append(table) or load_row(self, table, row),
        )
        again = run_replicated(POINT, repetitions=5)
        assert loads == []  # every repetition of the next point is warm
        assert again.runs == first.runs
        monkeypatch.undo()
        for seed in range(50, 50 + 2 * population_memo.IMAGE_MEMO_BOUND):
            build_database(None, PopulationConfig(customers=3, seed=seed))
            assert len(population_memo._images) <= population_memo.IMAGE_MEMO_BOUND
        # Least recently used went first: the newest seeds are the ones kept.
        assert {key[0].seed for key in population_memo._images} == set(
            range(50 + population_memo.IMAGE_MEMO_BOUND,
                  50 + 2 * population_memo.IMAGE_MEMO_BOUND)
        )


class TestWarmOpenWork:
    """A warm open costs O(tables), not O(rows): counted, not timed."""

    POPULATION_3600 = PopulationConfig(customers=3600, seed=11)

    def test_warm_open_makes_no_chain_and_few_tracked_objects(self, monkeypatch):
        build_database(None, self.POPULATION_3600)  # cold: memoises the image
        chains = []
        init = VersionChain.__init__
        monkeypatch.setattr(
            VersionChain,
            "__init__",
            lambda self, *args: chains.append(1) or init(self, *args),
        )
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            warm = build_database(None, self.POPULATION_3600)
            tracked = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert chains == []
        assert tracked < 500, tracked  # ~29 000 when every row got a chain
        assert len(warm.bootstrap_image()) == 4 * 3600

    @pytest.mark.parametrize("isolation", ["postgres", "ssi"])
    def test_a_run_makes_one_chain_per_row_it_wrote(self, isolation):
        build_database(None, POPULATION)
        config = getattr(EngineConfig, isolation)()
        db = build_database(config, POPULATION)
        written = set()
        db.add_observer(lambda txn: written.update(txn.write_order))
        transactions = get_strategy("promote-all").transactions()
        rng = random.Random(5)
        params = ParameterGenerator(HotspotConfig(24, hotspot=6), rng)
        session = Session(db)
        for _ in range(200):
            program = UNIFORM_MIX.choose(rng)
            try:
                transactions.run(session, program, params.args_for(program))
            except ReproError:  # business rollbacks and conflicts alike
                if session.in_transaction:
                    session.rollback()
        total_money(db)  # a scan reads every row and makes no chain
        assert 0 < len(written) < 4 * POPULATION.customers
        assert {
            (table.schema.name, key) for table in db.catalog for key in table.rows
        } == written
