"""The cluster harness over both shard kinds: slice parity, control
channel, shard lifecycle, certification.

Cheapest first: a served shard's slice builder must be bit-identical to
the in-process partitioner (no subprocess needed to check that); the
serialization helpers that ship histories and fault plans across the
process boundary must round-trip; one real
:class:`~repro.cluster.ShardProcess` goes through its control channel;
then the crash → salvage → same-port-restart lifecycle runs as ONE test
body against :class:`~repro.cluster.Cluster` (thread shards) and
:class:`~repro.cluster.ShardFleet` (process shards); last an MPL-8
workload over the fleet certifies the merged MVSG and leak-free
teardown.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis import (
    committed_from_dict,
    committed_to_dict,
    dump_history_jsonl,
    load_history_jsonl,
    merge_shard_histories,
    record_database,
)
from repro.api import ISOLATION_CONFIGS
from repro.cluster import (
    Cluster,
    ShardFleet,
    ShardProcess,
    build_shard_database,
)
from repro.cluster.partition import PARTITION_COLUMNS
from repro.engine import Session
from repro.errors import ReproError, TransactionStateError
from repro.faults import FaultPlan, FaultSpec, plan_from_json
from repro.net.shard import SALVAGE_EPOCH_STRIDE, build_served_database
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig


def _table_contents(db) -> dict:
    """Every row of every SmallBank table, for whole-database equality."""
    txn = db.begin("audit")
    contents = {
        table: sorted(
            (repr(key), sorted(row.items()))
            for key, row in db.scan(txn, table)
        )
        for table in PARTITION_COLUMNS
    }
    db.commit(txn)
    return contents


class TestSlicePopulationParity:
    def test_standalone_slice_is_bit_identical_to_the_partitioner(self):
        """A ``python -m repro.net --shard-index i --shard-count n`` child
        must self-populate exactly the slice ``build_shard_database``
        would hand an in-process shard — same rows, same balances (the
        partitioner burns RNG draws for skipped customers to keep the
        stream aligned)."""
        population = PopulationConfig(customers=17, seed=4242)
        for shard_index in range(3):
            expected = build_shard_database(
                ISOLATION_CONFIGS["si"](),
                population,
                shard_index=shard_index,
                shard_count=3,
            )
            standalone = build_served_database(
                customers=17,
                isolation="si",
                seed=4242,
                shard_index=shard_index,
                shard_count=3,
            )
            assert _table_contents(standalone) == _table_contents(expected)

    def test_single_shard_matches_the_plain_population(self):
        expected = build_database(
            ISOLATION_CONFIGS["si"](), PopulationConfig(customers=9)
        )
        standalone = build_served_database(customers=9, isolation="si")
        assert _table_contents(standalone) == _table_contents(expected)


class TestCrossProcessSerialization:
    def test_fault_plan_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec("net-drop-frame", probability=0.25, start_after=10),
                FaultSpec("wal-stall", magnitude=0.5, max_fires=3),
            ],
            seed=99,
        )
        clone = plan_from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        assert clone.seed == 99
        assert clone.magnitude("wal-stall") == 0.5
        # Same seed => same draw sequence from a fresh start.
        draws = [plan.should_fire("net-drop-frame") for _ in range(40)]
        clone_draws = [clone.should_fire("net-drop-frame") for _ in range(40)]
        assert draws == clone_draws

    def test_history_jsonl_round_trip(self, tmp_path):
        db = build_database(None, PopulationConfig(customers=3))
        recorder = record_database(db)
        session = Session(db)
        session.begin("Writer")
        session.update("Checking", 1, {"Balance": 77.0})
        session.commit()
        session.begin("Reader")
        session.select("Checking", 1)
        session.scan("Checking", lambda row: row["Balance"] > 0, "rich")
        session.commit()
        committed = recorder.committed
        assert committed
        for txn in committed:  # dict encoding inverts exactly
            assert committed_from_dict(committed_to_dict(txn)) == txn
        path = tmp_path / "history.jsonl"
        assert dump_history_jsonl(str(path), committed) == len(committed)
        assert load_history_jsonl(str(path)) == committed


class TestShardProcess:
    def test_spawn_serve_crash_recover_dump_shutdown(self, tmp_path):
        """One child through its whole lifecycle: readiness, wire reads,
        an engine crash + same-port recovery driven over the control
        channel, a history dump, and a clean (unkilled) exit."""
        shard = ShardProcess(0, 2, customers=8, seed=7)
        try:
            host, port = shard.wait_ready()
            assert shard.ping()
            with repro.connect(f"tcp://{host}:{port}") as conn:
                with conn.transaction("Deposit") as txn:
                    # Customer 2 hashes to shard 0 of 2.
                    before = txn.select("Checking", 2)["Balance"]
                    txn.update("Checking", 2, {"Balance": before + 10.0})
            shard.crash()
            assert shard.crashed
            shard.recover()
            assert not shard.crashed
            assert shard.address == (host, port)  # same port, recovered
            with repro.connect(f"tcp://{host}:{port}") as conn:
                with conn.transaction("Check") as txn:
                    assert txn.select("Checking", 2)["Balance"] == (
                        before + 10.0
                    )
                # A post-recovery commit: proves the recorder carried
                # over to the recovered engine.
                with conn.transaction("PostRecovery") as txn:
                    txn.update("Checking", 2, {"Balance": before + 20.0})
            dump = tmp_path / "shard0.jsonl"
            count = shard.dump_history(str(dump))
            assert count >= 2  # salvaged deposit + post-recovery write
            labels = {txn.label for txn in load_history_jsonl(str(dump))}
            assert {"Deposit", "PostRecovery"} <= labels
        finally:
            shard.shutdown()
        assert not shard.alive
        assert shard.kill_count == 0
        assert shard.stats is not None  # graceful exits report STATS


class TestShardLifecycle:
    """One body, both shard kinds: the harness surface is written once,
    so what holds for thread shards must hold for process shards."""

    HARNESSES = pytest.mark.parametrize(
        "harness", [Cluster, ShardFleet], ids=["threads", "processes"]
    )

    @HARNESSES
    def test_crash_salvage_restart_on_the_same_port(self, harness):
        txns = get_strategy("base-si").transactions()
        # Customer 2 lives on shard 0 (the victim), customer 1 on shard 1.
        deposit = {"N": customer_name(2), "V": 25.0}
        with harness(2, customers=8, seed=5) as cluster:
            initial = cluster.total_money()
            addresses = list(cluster.addresses)
            with cluster.connect() as conn:
                session = conn.session()
                txns.run(session, "DepositChecking", deposit)
                txns.run(
                    session,
                    "Amalgamate",
                    {"N1": customer_name(1), "N2": customer_name(2)},
                )
                session.close()
            cluster.crash_shard(0)
            assert cluster.shards[0].crashed
            with pytest.raises(TransactionStateError, match="crashed"):
                cluster.pending_2pc_gtids()  # needs every shard serving
            assert cluster.recover_crashed() == 1
            assert cluster.restart_count == 1
            assert not cluster.shards[0].crashed
            assert cluster.shards[0].address == addresses[0]
            assert cluster.addresses == addresses
            # Fresh wires to the old port; a second router needs its own
            # gtid range for the merged trace to tell its transactions apart.
            with cluster.connect(gtid_base=1000) as conn:
                session = conn.session()
                txns.run(session, "DepositChecking", deposit)
                session.close()

            # The durable pre-crash commits survive with their txids
            # shifted into the crash's epoch range; the recovered
            # engine's counter restarted below it.  (total_money's own
            # read-only "audit" transaction is recorded too.)
            history = cluster.histories()[0]
            salvaged = [t for t in history if t.txid >= SALVAGE_EPOCH_STRIDE]
            live = [t for t in history if t.txid < SALVAGE_EPOCH_STRIDE]
            assert [t.label.split("#")[0] for t in salvaged] == [
                "audit",
                "DepositChecking",
                "Amalgamate",
            ]
            assert all(t.txid < 2 * SALVAGE_EPOCH_STRIDE for t in salvaged)
            assert [t.label.split("#")[0] for t in live] == ["DepositChecking"]
            report = merge_shard_histories(cluster.histories())
            assert report.serializable, report.describe()
            # Durable effects survived the crash: both deposits counted.
            assert cluster.total_money() == round(initial + 50.0, 2)
            assert cluster.pending_2pc_gtids() == set()
        # Clean shutdown: every shard left its final counters...
        assert all(shard.stats is not None for shard in cluster.shards)
        if harness is ShardFleet:  # ...and no child was orphaned or killed.
            assert cluster.alive_count == cluster.kill_count == 0

    @HARNESSES
    def test_restart_requires_a_crash(self, harness):
        with harness(2, customers=4) as cluster:
            with pytest.raises(ReproError, match="not crashed"):
                cluster.restart_shard(0)
            assert cluster.restart_count == 0
            assert cluster.recover_crashed() == 0


class TestFleetWorkload:
    def test_mpl8_workload_certifies_and_leaves_no_orphans(self):
        """The multi-process acceptance check, miniaturised: an MPL-8
        uniform mix over a 2-shard fleet of OS processes, merged MVSG
        acyclic under promote-all, no gtid left prepared or in doubt,
        and zero orphaned or force-killed shard processes after
        shutdown.  (The uniform mix deposits money, so there is no
        ledger-conservation check here — that is the chaos harness's
        Balance+Amalgamate mix.)"""
        with ShardFleet(2, customers=20, seed=13) as cluster:
            conn = cluster.connect()
            try:
                stats = ThreadedDriver(
                    None,
                    get_strategy("promote-all").transactions(),
                    ThreadedDriverConfig(
                        mpl=8,
                        customers=20,
                        hotspot=5,
                        mix="uniform",
                        duration=0.6,
                        seed=3,
                    ),
                    connection=conn,
                ).run()
                counters = conn.counters()
            finally:
                conn.close()
            assert stats.total_commits > 0
            assert cluster.pending_2pc_gtids() == set()
            report = merge_shard_histories(cluster.histories())
            assert report.serializable, report.describe()
            # The uniform mix's Amalgamates produce real cross-shard 2PC.
            assert counters["twopc_commits"] + counters["twopc_aborts"] > 0
        assert cluster.alive_count == 0
        assert cluster.kill_count == 0
