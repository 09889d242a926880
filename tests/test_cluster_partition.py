"""Hash partitioning and shard affinity (DESIGN.md §12.2).

Pins the three properties the cluster depends on: the customer → shard
map is total and deterministic, each shard's population slice is exactly
the single-node population restricted to its customers (same seed, same
balances), and the workload generator's parameter draws respect the
partition map — single-customer programs always name one shard, and the
two-customer Amalgamate crosses shards at the rate the map predicts.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import PARTITION_COLUMNS, HashPartitioner, build_shard_database
from repro.engine import Session
from repro.smallbank import PopulationConfig, build_database, customer_name
from repro.smallbank.programs import (
    AMALGAMATE,
    BALANCE,
    DEPOSIT_CHECKING,
    TRANSACT_SAVING,
    WRITE_CHECK,
)
from repro.smallbank.schema import total_money
from repro.workload.mix import (
    HotspotConfig,
    ParameterGenerator,
    customer_ids_in_args,
)


class TestHashPartitioner:
    def test_shard_map_is_modular_and_total(self):
        partitioner = HashPartitioner(4)
        for cid in range(1, 101):
            shard = partitioner.shard_for_customer(cid)
            assert shard == cid % 4
            assert 0 <= shard < 4

    def test_single_shard_cluster_owns_everything(self):
        partitioner = HashPartitioner(1)
        assert {partitioner.shard_for_customer(c) for c in range(1, 50)} == {0}

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_customer_from_key_per_table(self):
        assert HashPartitioner.customer_from_key("Account", "cust0000042") == 42
        assert HashPartitioner.customer_from_key("Saving", 7) == 7
        assert HashPartitioner.customer_from_key("Checking", "9") == 9
        assert HashPartitioner.customer_from_key("Conflict", 3) == 3

    def test_bad_account_name_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner.customer_from_key("Account", "alice")
        with pytest.raises(ValueError):
            HashPartitioner.customer_from_key("Account", "custX")

    def test_an_account_name_routes_to_its_customers_shard(self):
        """``shard_for_name`` is the router's one-frame rule; the Account
        row of a name lives where it says."""
        partitioner = HashPartitioner(3)
        for cid in (1, 2, 3, 17, 100):
            name = customer_name(cid)
            assert partitioner.shard_for_name(name) == partitioner.shard_for_customer(cid)
            assert partitioner.shard_for_row("Account", name) == partitioner.shard_for_name(name)
        for bad in ("alice", "custX", "cust", "cust42 ", None):
            with pytest.raises(ValueError):
                partitioner.shard_for_name(bad)

    def test_customers_four_rows_are_colocated(self):
        """Account, Saving, Checking and Conflict of one customer land on
        the same shard — the fast path's precondition for single-customer
        programs."""
        partitioner = HashPartitioner(3)
        for cid in (1, 2, 3, 17, 100):
            shards = {
                partitioner.shard_for_row(table, key)
                for table, key in (
                    ("Account", customer_name(cid)),
                    ("Saving", cid),
                    ("Checking", cid),
                    ("Conflict", cid),
                )
            }
            assert shards == {partitioner.shard_for_customer(cid)}

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner(2).shard_for_row("Ledger", 1)

    def test_partition_columns_cover_the_schema(self):
        assert set(PARTITION_COLUMNS) == {
            "Account",
            "Saving",
            "Checking",
            "Conflict",
        }


def _row(db, table, key):
    session = Session(db)
    session.begin("probe")
    try:
        return session.select(table, key)
    finally:
        session.commit()


class TestShardPopulation:
    @pytest.mark.parametrize("shard_count", [2, 3])
    def test_union_of_shards_equals_single_node_population(self, shard_count):
        """Same seed → the shard slices partition the single-node rows
        bit-for-bit (the RNG draws both balances for every customer in
        order, whether or not the customer lands on the shard)."""
        population = PopulationConfig(customers=12)
        full = build_database(None, population)
        shards = [
            build_shard_database(
                None, population, shard_index=i, shard_count=shard_count
            )
            for i in range(shard_count)
        ]
        partitioner = HashPartitioner(shard_count)
        for cid in range(1, population.customers + 1):
            owner = partitioner.shard_for_customer(cid)
            for table, key in (
                ("Account", customer_name(cid)),
                ("Saving", cid),
                ("Checking", cid),
                ("Conflict", cid),
            ):
                expected = _row(full, table, key)
                assert expected is not None
                for index, shard_db in enumerate(shards):
                    got = _row(shard_db, table, key)
                    if index == owner:
                        assert got == expected, (table, key)
                    else:
                        assert got is None, (table, key, index)
        assert round(sum(total_money(s) for s in shards), 2) == total_money(
            full
        )

    def test_shard_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_shard_database(shard_index=2, shard_count=2)
        with pytest.raises(ValueError):
            build_shard_database(shard_index=-1, shard_count=2)


class TestParameterShardAffinity:
    """Satellite: the generator's draws respect the partition map."""

    SINGLE = [BALANCE, DEPOSIT_CHECKING, TRANSACT_SAVING, WRITE_CHECK]

    def _generator(self, customers=40, hotspot=40, probability=0.9, seed=7):
        config = HotspotConfig(
            customers=customers,
            hotspot=hotspot,
            hotspot_probability=probability,
        )
        return ParameterGenerator(config, random.Random(seed))

    def test_customer_ids_in_args_inverts_the_name_encoding(self):
        assert customer_ids_in_args({"N": customer_name(42), "V": 1.0}) == (42,)
        assert customer_ids_in_args(
            {"N1": customer_name(3), "N2": customer_name(18)}
        ) == (3, 18)
        assert customer_ids_in_args({"V": 5.0}) == ()

    @pytest.mark.parametrize("program", SINGLE)
    def test_single_customer_programs_name_exactly_one_shard(self, program):
        generator = self._generator()
        partitioner = HashPartitioner(4)
        for _ in range(200):
            ids = customer_ids_in_args(generator.args_for(program))
            assert len(ids) == 1
            assert 1 <= ids[0] <= 40
            shard = partitioner.shard_for_customer(ids[0])
            assert 0 <= shard < 4

    def test_hotspot_skew_respects_the_partition_map(self):
        """90 % of skewed draws hit the hotspot, and every drawn id still
        maps inside the shard range — skew changes *which* shard is hot,
        never whether a draw is routable."""
        generator = self._generator(customers=40, hotspot=10, probability=0.9)
        partitioner = HashPartitioner(2)
        in_hotspot = 0
        draws = 2000
        for _ in range(draws):
            ids = customer_ids_in_args(generator.args_for(BALANCE))
            (cid,) = ids
            assert 1 <= cid <= 40
            assert partitioner.shard_for_customer(cid) in (0, 1)
            if cid <= 10:
                in_hotspot += 1
        assert 0.85 <= in_hotspot / draws <= 0.95

    @pytest.mark.parametrize("shard_count", [2, 4])
    def test_amalgamate_cross_shard_fraction_matches_the_map(self, shard_count):
        """Two distinct uniform customers over 40 ids: the fraction of
        pairs landing on different shards is the hypergeometric
        1 - (n/s)(n/s - 1)·s / (n(n-1))."""
        customers = 40
        per_shard = customers // shard_count
        expected = 1.0 - (
            shard_count * per_shard * (per_shard - 1)
        ) / (customers * (customers - 1))
        generator = self._generator(customers=customers, hotspot=customers)
        partitioner = HashPartitioner(shard_count)
        draws = 4000
        crossing = 0
        for _ in range(draws):
            first, second = customer_ids_in_args(
                generator.args_for(AMALGAMATE)
            )
            assert first != second
            if partitioner.shard_for_customer(
                first
            ) != partitioner.shard_for_customer(second):
                crossing += 1
        assert abs(crossing / draws - expected) < 0.04
