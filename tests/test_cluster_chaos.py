"""Distributed robustness: injected faults, crashes, and self-healing.

Covers the DESIGN.md §13 failure model end to end over real TCP shards:
network-level injections (dropped / delayed responses, connection
resets), coordinator crashes on both sides of the decision-log write
with in-doubt resolution, stale statement ids after a shard restart (the
crash / salvage / same-port-restart lifecycle itself is in
``tests/test_cluster_fleet.py``), heartbeat-driven shard health (demote,
fail-fast, restore), fail-soft ``stats()``/``ping()`` against a dead shard, and a short
seeded ``run_chaos`` soak asserting the full certification contract.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.analysis import merge_shard_histories
from repro.cluster import Cluster
from repro.cluster.chaos import ChaosConfig, build_fault_plan, run_chaos
from repro.cluster.router import ClusterSession
from repro.engine import Database, EngineConfig, Session
from repro.errors import (
    ConnectionClosed,
    CoordinatorCrashed,
    DatabaseCrashed,
    ProtocolError,
    ShardUnavailable,
)
from repro.faults import FaultPlan, FaultSpec
from repro.net import DatabaseServer
from repro.net.client import NetworkConnection, WireConnection
from repro.smallbank import PopulationConfig, build_database, customer_name
from repro.smallbank.strategies import get_strategy

from tests.conftest import make_bank_db
from tests.test_cluster_router import _observed_total, _transfer


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def make_server(**kwargs):
    db = build_database(
        EngineConfig.postgres(), PopulationConfig(customers=10)
    )
    return DatabaseServer(db, **kwargs).start_in_thread()


# ----------------------------------------------------------------------
# Network-level injection points (single server, real sockets)
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_dropped_response_hits_the_rpc_deadline(self):
        """net-drop-frame: the request executes but the ack vanishes; the
        client's per-RPC deadline converts the silence into a fast
        ConnectionClosed instead of an indefinite hang."""
        server = make_server()
        try:
            conn = NetworkConnection(
                "127.0.0.1", server.port, rpc_deadline=0.3
            )
            assert conn.ping()  # handshake + sanity before the fault
            server.install_faults(
                FaultPlan([FaultSpec("net-drop-frame", max_fires=1)])
            )
            started = time.monotonic()
            assert not conn.ping()  # single-attempt probe: deadline, False
            assert time.monotonic() - started < 2.0
            assert conn.ping()  # max_fires exhausted: healthy again
            assert server.stats()["net_faults_total"] == 1
            conn.close()
        finally:
            server.shutdown()

    def test_delayed_response_arrives_late_but_intact(self):
        server = make_server()
        try:
            conn = NetworkConnection("127.0.0.1", server.port)
            assert conn.ping()
            server.install_faults(
                FaultPlan(
                    [FaultSpec("net-delay-frame", magnitude=0.3, max_fires=1)]
                )
            )
            started = time.monotonic()
            assert conn.ping()  # same answer, just held back
            assert time.monotonic() - started >= 0.2
            conn.close()
        finally:
            server.shutdown()

    def test_conn_reset_surfaces_and_reconnect_heals(self):
        server = make_server()
        try:
            conn = NetworkConnection(
                "127.0.0.1", server.port, rpc_deadline=1.0
            )
            assert conn.ping()
            server.install_faults(
                FaultPlan([FaultSpec("conn-reset", max_fires=1)])
            )
            assert not conn.ping()  # RST mid-stream, single attempt
            assert conn.ping()  # a fresh wire dials fine
            conn.close()
        finally:
            server.shutdown()

    def test_no_plan_keeps_the_response_path_clean(self):
        server = make_server()
        try:
            assert server.faults is None
            conn = NetworkConnection("127.0.0.1", server.port)
            for _ in range(20):
                assert conn.ping()
            assert server.stats()["net_faults_total"] == 0
            conn.close()
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# Coordinator crash window + in-doubt resolution
# ----------------------------------------------------------------------
def _crash_twice():
    return FaultPlan([FaultSpec("coordinator-crash-window", max_fires=2)])


def _leave_a_logged_commit_undelivered(conn):
    """Two cross-shard transfers under :func:`_crash_twice`: the first
    crashes before the decision log write (settled here, presumed
    abort), the second after it — its commit is logged and no shard has
    heard it."""
    with pytest.raises(CoordinatorCrashed):
        _transfer(conn, 10.0)
    conn.resolve_in_doubt()
    with pytest.raises(CoordinatorCrashed) as excinfo:
        _transfer(conn, 10.0)
    assert "after the decision log write" in str(excinfo.value)


class TestCoordinatorCrash:
    def test_both_crash_flavors_resolve_from_the_decision_log(self):
        """Two forced crashes in the in-doubt window: the first dies
        *before* the decision-log write (recovery presumes abort), the
        second *after* logging commit (recovery re-delivers it).  Money
        is conserved either way."""
        txns = get_strategy("base-si").transactions()
        plan = FaultPlan(
            [FaultSpec("coordinator-crash-window", max_fires=2)]
        )
        with Cluster(2, customers=8) as cluster:
            initial = cluster.total_money()
            with cluster.connect(fault_plan=plan) as conn:
                session = conn.session()
                # Customer ids hash to id % 2: (1, 2) and (3, 4) are both
                # cross-shard pairs, forcing the 2PC path.
                before_1 = txns.run(
                    session, "Balance", {"N": customer_name(1)}
                )
                with pytest.raises(CoordinatorCrashed) as excinfo:
                    txns.run(
                        session,
                        "Amalgamate",
                        {"N1": customer_name(1), "N2": customer_name(2)},
                    )
                assert "before the decision log write" in str(excinfo.value)
                first_gtid = session.gtid
                outcomes = conn.resolve_in_doubt()
                assert outcomes == {first_gtid: "abort"}

                with pytest.raises(CoordinatorCrashed) as excinfo:
                    txns.run(
                        session,
                        "Amalgamate",
                        {"N1": customer_name(3), "N2": customer_name(4)},
                    )
                assert "after the decision log write" in str(excinfo.value)
                second_gtid = session.gtid
                outcomes = conn.resolve_in_doubt()
                assert outcomes == {second_gtid: "commit"}

                # Presumed abort left customer 1 untouched; the re-delivered
                # commit drained customer 3 into 4.
                assert (
                    txns.run(session, "Balance", {"N": customer_name(1)})
                    == before_1
                )
                assert (
                    txns.run(session, "Balance", {"N": customer_name(3)})
                    == 0.0
                )
                counters = conn.counters()
                assert counters["coordinator_crashes"] == 2
                assert counters["in_doubt_aborts"] == 1
                assert counters["in_doubt_commits"] == 1
                # A later sweep finds nothing left to settle (idempotent).
                assert conn.resolve_in_doubt() == {}
                session.close()
            assert cluster.total_money() == initial

    def test_redelivered_commit_is_not_seen_half_applied(self, monkeypatch):
        """The resolver re-delivers a logged commit at its logged
        timestamp: a cluster reader that starts between its two
        deliveries waits on the shard still prepared, so it sees the
        transfer on both shards or on neither — never one shard's half."""
        with Cluster(2, customers=4) as cluster:
            with cluster.connect(fault_plan=_crash_twice()) as conn:
                conserved = _observed_total(conn)
                _leave_a_logged_commit_undelivered(conn)
                totals, readers, commits = [], [], []
                send = WireConnection.send

                def parked():
                    return cluster.shards[1].server.stats()["parked_total"]

                def wedge_a_reader(wire, op, args):
                    if op == "COMMIT_2PC":
                        commits.append(args["gtid"])
                        if len(commits) == 2:
                            before = parked()
                            reader = threading.Thread(
                                target=lambda: totals.append(
                                    _observed_total(conn)
                                )
                            )
                            reader.start()
                            readers.append(reader)
                            wait_until(
                                lambda: parked() > before,
                                message="the reader to park on shard 1",
                            )
                    return send(wire, op, args)

                monkeypatch.setattr(WireConnection, "send", wedge_a_reader)
                assert list(conn.resolve_in_doubt().values()) == ["commit"]
                monkeypatch.undo()
                for reader in readers:
                    reader.join(5.0)
                assert len(commits) == 2 and len(readers) == 1
                assert totals == [conserved]
                assert _observed_total(conn) == conserved
            assert merge_shard_histories(cluster.histories()).snapshot_isolated

    def test_a_split_program_and_a_sweep_take_wires_in_one_order(self):
        """With one wire per shard, a cross-shard Amalgamate whose first
        part lives on shard 1 and a STATS sweep (shard 0, then shard 1)
        must not each hold the wire the other waits for: the program
        checks its branches out in ascending shard order, as the sweep
        does, whatever order its parts run in."""
        txns = get_strategy("base-si").transactions()
        with Cluster(2, customers=4) as cluster:
            with cluster.connect(pool_size=1, timeout=1.0) as conn:
                assert [conn.partitioner.shard_for_customer(c) for c in (1, 2)] == [1, 0]
                swept, asked = [], [threading.Event() for _ in conn.shards]
                sweep = threading.Thread(target=lambda: swept.append(conn.stats()))
                for index, shard in enumerate(conn.shards):

                    def acquire(index=index, inner=shard._acquire):
                        if threading.current_thread() is sweep:
                            asked[index].set()
                        return inner()

                    shard._acquire = acquire
                open_branch, opened = ClusterSession._open, []

                def open_then_wedge(session, shard):
                    branch = open_branch(session, shard)
                    if not opened:  # the program's first checkout
                        opened.append(shard)
                        sweep.start()
                        assert asked[shard].wait(5.0)  # the sweep wants it too
                    return branch

                session = conn.session()
                session._open = open_then_wedge.__get__(session)
                try:
                    txns.run(session, "Amalgamate", {"N1": customer_name(1), "N2": customer_name(2)})
                finally:
                    session.close()
                sweep.join(10.0)
                assert opened == [0]
                assert [s["backend"] for s in swept[0]["shard_stats"]] == ["network"] * 2

    def test_background_resolver_settles_without_manual_sweeps(self):
        plan = FaultPlan(
            [FaultSpec("coordinator-crash-window", max_fires=1)]
        )
        txns = get_strategy("base-si").transactions()
        with Cluster(2, customers=8) as cluster:
            with cluster.connect(fault_plan=plan) as conn:
                conn.start_in_doubt_resolver(interval=0.05)
                session = conn.session()
                with pytest.raises(CoordinatorCrashed):
                    txns.run(
                        session,
                        "Amalgamate",
                        {"N1": customer_name(1), "N2": customer_name(2)},
                    )
                gtid = session.gtid
                wait_until(
                    lambda: conn.coordinator.decision_for(gtid) == "abort",
                    message="background resolver settling the orphan",
                )
                session.close()


# ----------------------------------------------------------------------
# Shard health: heartbeats, fail-fast, fail-soft introspection
# ----------------------------------------------------------------------
class TestShardHealth:
    def test_stats_and_ping_survive_a_dead_shard(self):
        """Introspection against a half-dead cluster answers fast and
        fail-soft: the dead shard contributes an ``unreachable`` stub and
        its health record, never an exception or a hang."""
        with Cluster(2, customers=8) as cluster:
            with cluster.connect(timeout=1.0, rpc_deadline=0.5) as conn:
                assert conn.ping()
                cluster.crash_shard(0)
                started = time.monotonic()
                assert not conn.ping()  # probes all shards, no hang
                stats = conn.stats()
                assert time.monotonic() - started < 10.0
                assert stats["shards"] == 2
                assert stats["shard_stats"][0].get("unreachable") is True
                assert "error" in stats["shard_stats"][0]
                assert stats["shard_stats"][1]["backend"] == "network"
                assert [h["shard"] for h in stats["shard_health"]] == [0, 1]

    def test_heartbeats_demote_failfast_and_restore(self):
        with Cluster(2, customers=8) as cluster:
            with cluster.connect(
                timeout=1.0, rpc_deadline=0.3, unhealthy_after=2
            ) as conn:
                # Without heartbeats there is no health signal and no
                # fail-fast: every shard reads healthy.
                assert all(h["healthy"] for h in conn.shard_health())
                conn.start_heartbeats(interval=0.05, deadline=0.3)
                cluster.crash_shard(0)
                wait_until(
                    lambda: not conn.shard_health()[0]["healthy"],
                    message="heartbeats demoting the crashed shard",
                )
                # Sessions fail fast instead of dialing the dead endpoint.
                session = conn.session()
                with pytest.raises(ShardUnavailable):
                    session.begin("doomed")
                session.close()
                cluster.restart_shard(0)
                wait_until(
                    lambda: conn.shard_health()[0]["healthy"],
                    message="first successful heartbeat restoring health",
                )
                session = conn.session()
                session.begin("revived")
                session.rollback()
                session.close()

    def test_stopping_heartbeats_ends_failfast(self):
        """A verdict heartbeats can no longer revise is not enforced: a
        shard demoted before ``stop_background`` serves again once it is
        back, with no heartbeat to restore it."""
        with Cluster(2, customers=8) as cluster:
            with cluster.connect(
                timeout=1.0, rpc_deadline=0.3, unhealthy_after=2
            ) as conn:
                conn.start_heartbeats(interval=0.05, deadline=0.3)
                cluster.crash_shard(0)
                wait_until(
                    lambda: not conn.shard_health()[0]["healthy"],
                    message="heartbeats demoting the crashed shard",
                )
                conn.stop_background()
                cluster.restart_shard(0)
                session = conn.session()
                session.begin("revived")
                session.rollback()
                session.close()


# ----------------------------------------------------------------------
# Shard crash + same-port restart (the lifecycle itself, over both shard
# kinds: tests/test_cluster_fleet.py TestShardLifecycle)
# ----------------------------------------------------------------------
class TestShardCrashRestart:
    def test_stale_statement_ids_heal_after_restart(self):
        """Sids are namespaced per server instance: after a crash+restart
        a cached sid must surface as a transient ConnectionClosed (and
        flush the cache) — never a hard ProtocolError, never a silent
        hit on the wrong statement."""
        txns = get_strategy("base-si").transactions()
        with Cluster(2, customers=8) as cluster:
            with cluster.connect(timeout=2.0, rpc_deadline=1.0) as conn:
                session = conn.session()
                # Customer 2 hashes to shard 0 — the one we crash below,
                # so the learnt sids really do go stale.
                args = {"N": customer_name(2), "V": 5.0}
                txns.run(session, "DepositChecking", args)  # learn sids
                session.close()
                cluster.crash_shard(0)
                cluster.restart_shard(0)
                for attempt in range(6):
                    session = conn.session()
                    try:
                        txns.run(session, "DepositChecking", args)
                        break
                    except ConnectionClosed:
                        continue  # broken wire or invalidated sid: retry
                    except ProtocolError as exc:  # pragma: no cover
                        pytest.fail(f"stale sid escaped as {exc!r}")
                    finally:
                        session.close()
                else:  # pragma: no cover
                    pytest.fail("deposit never succeeded after restart")


# ----------------------------------------------------------------------
# Engine: crash wakes blocked lock waiters (hang regression)
# ----------------------------------------------------------------------
class TestCrashWakesWaiters:
    def test_crash_wakes_a_blocked_lock_waiter(self):
        """A thread blocked on a row lock must observe the crash promptly
        (DatabaseCrashed), not sleep forever on a resolution callback the
        vanished holder can no longer fire."""
        db = make_bank_db()  # no lock timeout: waits are unbounded
        holder = Session(db)
        holder.begin("holder")
        holder.update("Saving", 1, {"Balance": 1.0})

        outcome: dict = {}

        def blocked_writer() -> None:
            s = Session(db)
            s.begin("waiter")
            try:
                s.update("Saving", 1, {"Balance": 2.0})
                outcome["result"] = "acquired"
            except DatabaseCrashed:
                outcome["result"] = "crashed"
            except Exception as exc:  # pragma: no cover
                outcome["result"] = repr(exc)

        thread = threading.Thread(target=blocked_writer, daemon=True)
        thread.start()
        wait_until(
            lambda: len(db.active_transactions) == 2,
            timeout=2.0,
            message="waiter's transaction becoming active",
        )
        time.sleep(0.1)  # let the waiter actually park on its event
        db.crash()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "crash did not wake the lock waiter"
        assert outcome["result"] == "crashed"


# ----------------------------------------------------------------------
# The seeded soak (short configuration of the CI gate)
# ----------------------------------------------------------------------
#: Every distributed fault point the soak's schedule drives.
POINTS = (
    "net-drop-frame",
    "net-delay-frame",
    "net-dup-decision",
    "conn-reset",
    "shard-crash",
    "coordinator-crash-window",
)


class TestChaosSoak:
    def test_short_soak_certifies(self):
        config = ChaosConfig(
            shards=2, customers=16, mpl=4, duration=1.0, seed=7
        )
        result = run_chaos(config)
        assert result.serializable
        assert result.ledger_conserved
        assert result.in_doubt_after_recovery == 0
        assert result.ok
        # The storm happened: the shard died and came back, and the
        # coordinator crashed inside its in-doubt window.
        assert result.shard_restarts == result.counters["shard_crashes"] == 1
        assert result.counters["coordinator_crashes_seen"] > 0
        record = result.to_record()
        assert record["benchmark"] == "chaos_cluster"
        for key in ("config", "ok", "checks", "counters", "router", "faults"):
            assert key in record
        assert record["checks"] == {
            "serializable": True,
            "snapshot_isolated": True,
            "ledger_conserved": True,
            "in_doubt_after_recovery": 0,
        }
        assert record["final_money"] == record["initial_money"]
        # The schedule is recorded, not just its effects.
        assert {spec["point"] for spec in record["faults"]["plan"]} == set(
            POINTS
        )
        json.dumps(record)

    def test_a_worker_that_dies_fails_the_soak(self, monkeypatch):
        from repro.smallbank.transactions import SmallBankTransactions

        run, raised = SmallBankTransactions.run, []

        def run_once_broken(self, *args, **kwargs):
            if not raised:
                raised.append(True)
                raise TypeError("a bug in a program")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SmallBankTransactions, "run", run_once_broken)
        result = run_chaos(
            ChaosConfig(shards=2, customers=16, mpl=2, duration=0.5, seed=7)
        )
        assert result.serializable and result.ledger_conserved
        assert not result.ok
        (failure,) = result.to_record()["checks"]["thread_failures"]
        assert failure.startswith("chaos-worker-")
        assert "TypeError('a bug in a program')" in failure
        # The surviving client's requests are still counted.
        assert result.counters["commits"] > 0

    def test_fault_plan_covers_every_distributed_point(self):
        plan = build_fault_plan(ChaosConfig())
        for point in POINTS:
            assert plan.covers(point)

    def test_fault_schedule_is_deterministic(self):
        """Same seed → the same firing decisions in the same consult order."""
        config = ChaosConfig(seed=23, duration=1.0)
        decisions = [
            [plan.should_fire(point) for _ in range(400) for point in POINTS]
            for plan in (build_fault_plan(config), build_fault_plan(config))
        ]
        assert decisions[0] == decisions[1]
        assert any(decisions[0])  # the schedule is not vacuously quiet

    def test_shard_crash_fires_a_fifth_into_the_storm(self):
        """The controller polls every 50 ms, so the crash waits for
        ``round(0.2 × duration / 0.05)`` polls."""
        for duration, polls in ((1.0, 4), (3.0, 12), (4.0, 16)):
            plan = json.loads(
                build_fault_plan(ChaosConfig(duration=duration)).to_json()
            )
            (crash,) = (
                spec for spec in plan["specs"] if spec["point"] == "shard-crash"
            )
            assert crash["start_after"] == polls


class TestChaosCli:
    def test_a_one_shard_storm_is_refused_before_any_cluster_starts(
        self, monkeypatch, capsys
    ):
        import repro.cluster.chaos as chaos
        from repro.cluster.__main__ import main

        def no_soak(*args, **kwargs):
            raise AssertionError("a cluster was started")

        monkeypatch.setattr(chaos, "run_chaos", no_soak)
        with pytest.raises(SystemExit) as exit_info:
            main(["--chaos-smoke", "--shards", "1"])
        assert exit_info.value.code == 2
        assert "--shards >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, why",
        [
            (["--chaos-smoke", "--customers", "1"], "--customers >= 2"),
            (["--smoke", "--customers", "1"], "--customers >= 2"),
            (["--shards", "0"], "--shards must be at least 1"),
        ],
    )
    def test_a_bad_size_is_refused_before_any_cluster_starts(
        self, monkeypatch, capsys, argv, why
    ):
        import repro.cluster.__main__ as cli
        import repro.cluster.chaos as chaos

        def no_cluster(*args, **kwargs):
            raise AssertionError("a cluster was started")

        for module, name in ((chaos, "run_chaos"), (cli, "Cluster"), (cli, "ShardFleet")):
            monkeypatch.setattr(module, name, no_cluster)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert why in capsys.readouterr().err
