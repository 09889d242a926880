"""Fault injection: plan semantics, the engine/driver/simulator hooks,
and the SmallBank mix under chaos in the simulator."""

from __future__ import annotations

import pytest

from repro.analysis import SerializabilityChecker
from repro.engine import Database, EngineConfig, Session
from repro.errors import FaultInjected, LockTimeout
from repro.faults import INJECTION_POINTS, FaultPlan, FaultSpec
from repro.sim.core import Simulator
from repro.sim.resources import GroupCommitLog
from repro.sim.runner import SimulationConfig, run_once
from repro.smallbank.transactions import SmallBankTransactions
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig
from repro.workload.retry import RetryPolicy

from tests.conftest import make_bank_db


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_rejects_unknown_point(self) -> None:
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec("disk-on-fire")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"start_after": -1},
            {"max_fires": -2},
            {"magnitude": -0.5},
        ],
    )
    def test_spec_validates_parameters(self, kwargs) -> None:
        with pytest.raises(ValueError):
            FaultSpec("wal-stall", **kwargs)

    def test_plan_rejects_duplicate_points(self) -> None:
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultSpec("wal-stall"), FaultSpec("wal-stall")])

    def test_should_fire_rejects_unknown_point(self) -> None:
        with pytest.raises(ValueError):
            FaultPlan().should_fire("nope")

    def test_uncovered_point_never_fires_but_counts(self) -> None:
        plan = FaultPlan([FaultSpec("wal-stall")])
        assert not plan.covers("client-death")
        assert not plan.should_fire("client-death")
        assert plan.opportunities["client-death"] == 1
        assert plan.fired("client-death") == 0

    def test_start_after_and_max_fires(self) -> None:
        plan = FaultPlan([FaultSpec("wal-stall", start_after=2, max_fires=3)])
        fires = [plan.should_fire("wal-stall") for _ in range(8)]
        assert fires == [False, False, True, True, True, False, False, False]
        assert plan.opportunities["wal-stall"] == 8
        assert plan.fired("wal-stall") == 3

    def test_probability_is_seed_deterministic(self) -> None:
        def pattern(seed: int) -> list[bool]:
            plan = FaultPlan(
                [FaultSpec("abort-at-commit", probability=0.5)], seed=seed
            )
            return [plan.should_fire("abort-at-commit") for _ in range(64)]

        a, b = pattern(3), pattern(3)
        assert a == b
        assert any(a) and not all(a)  # genuinely probabilistic
        assert pattern(4) != a  # seed matters

    def test_extreme_probabilities_draw_nothing(self) -> None:
        """p=0 and p=1 must not consume RNG state (determinism guarantee)."""
        plan = FaultPlan(
            [
                FaultSpec("wal-stall", probability=1.0),
                FaultSpec("client-death", probability=0.0),
            ],
            seed=9,
        )
        before = plan._rng.getstate()
        assert plan.should_fire("wal-stall")
        assert not plan.should_fire("client-death")
        assert plan._rng.getstate() == before

    def test_magnitude(self) -> None:
        plan = FaultPlan([FaultSpec("wal-stall", magnitude=0.25)])
        assert plan.magnitude("wal-stall") == 0.25
        assert plan.magnitude("client-death") == 0.0

    def test_injection_points_registry(self) -> None:
        assert INJECTION_POINTS == {
            "abort-at-commit",
            "crash-mid-commit",
            "wal-stall",
            "client-death",
            "lock-timeout",
            "net-drop-frame",
            "net-delay-frame",
            "net-dup-decision",
            "conn-reset",
            "shard-crash",
            "coordinator-crash-window",
        }

    def test_fired_counts_injections(self) -> None:
        plan = FaultPlan([FaultSpec("shard-crash", max_fires=2)])
        assert plan.fired("shard-crash") == 0
        assert plan.should_fire("shard-crash")
        assert plan.fired("shard-crash") == 1
        assert plan.should_fire("shard-crash")
        assert not plan.should_fire("shard-crash")  # max_fires reached
        assert plan.fired("shard-crash") == 2


# ----------------------------------------------------------------------
# Engine hooks
# ----------------------------------------------------------------------
class TestEngineHooks:
    def test_abort_at_commit(self, db: Database) -> None:
        db.install_faults(FaultPlan([FaultSpec("abort-at-commit", max_fires=1)]))

        s = Session(db)
        s.begin("victim")
        s.update("Saving", 1, {"Balance": 1.0})
        with pytest.raises(FaultInjected) as excinfo:
            s.commit()
        assert excinfo.value.reason == "fault"
        assert db.active_transactions == ()

        # The fault released the victim's locks and left no versions.
        s2 = Session(db)
        s2.begin("after")
        s2.update("Saving", 1, {"Balance": 2.0})
        s2.commit()
        assert len(db.wal) == 1

    def test_lock_timeout_injection(self, db: Database) -> None:
        """The injected timeout expires a lock wait without any waiting."""
        db.install_faults(FaultPlan([FaultSpec("lock-timeout")]))

        holder = Session(db)
        holder.begin("holder")
        holder.update("Saving", 1, {"Balance": 1.0})

        waiter = Session(db)
        waiter.begin("waiter")
        with pytest.raises(LockTimeout) as excinfo:
            waiter.update("Saving", 1, {"Balance": 2.0})
        assert excinfo.value.reason == "lock-timeout"
        holder.commit()  # holder unaffected

    def test_no_plan_is_a_noop(self, db: Database) -> None:
        assert db.faults is None
        s = Session(db)
        s.begin("t")
        s.update("Saving", 1, {"Balance": 1.0})
        s.commit()
        assert len(db.wal.durable_records) == 1


# ----------------------------------------------------------------------
# Real lock-wait timeouts (no fault plan: the configured timeout expires)
# ----------------------------------------------------------------------
class TestLockWaitTimeout:
    def test_config_with_lock_timeout(self) -> None:
        config = EngineConfig.postgres().with_lock_timeout(0.05)
        assert config.lock_timeout == 0.05
        with pytest.raises(ValueError):
            EngineConfig.postgres().with_lock_timeout(-1.0)

    def test_threaded_waiter_times_out(self) -> None:
        db = make_bank_db(EngineConfig.postgres().with_lock_timeout(0.05))

        holder = Session(db)
        holder.begin("holder")
        holder.update("Saving", 1, {"Balance": 1.0})

        waiter = Session(db)
        waiter.begin("waiter")
        with pytest.raises(LockTimeout):
            waiter.update("Saving", 1, {"Balance": 2.0})
        assert db.active_transactions == (holder.transaction,)
        holder.commit()

    def test_wait_shorter_than_timeout_succeeds(self) -> None:
        """A waiter woken before the timeout proceeds normally."""
        import threading

        db = make_bank_db(EngineConfig.postgres().with_lock_timeout(5.0))

        holder = Session(db)
        holder.begin("holder")
        holder.update("Saving", 1, {"Balance": 1.0})
        threading.Timer(0.05, holder.commit).start()

        waiter = Session(db)
        waiter.begin("waiter")
        # First-updater-wins: once the holder commits, the waiter aborts
        # with a serialization failure, NOT a lock timeout.
        from repro.errors import SerializationFailure

        with pytest.raises(SerializationFailure):
            waiter.update("Saving", 1, {"Balance": 2.0})


# ----------------------------------------------------------------------
# Simulator hooks: WAL stalls and simulated lock-wait expiry
# ----------------------------------------------------------------------
class TestSimulatorHooks:
    def test_wal_stall_delays_flush(self) -> None:
        done: dict[str, float] = {}

        def run(plan: "FaultPlan | None") -> float:
            sim = Simulator()
            log = GroupCommitLog(
                sim, flush_time=0.01, commit_delay=0.0, faults=plan
            )

            def committer() -> None:
                log.commit_flush()
                done["at"] = sim.now

            sim.spawn(committer)
            sim.run_for(10.0)
            sim.shutdown()
            return done["at"]

        baseline = run(None)
        plan = FaultPlan([FaultSpec("wal-stall", magnitude=0.5)])
        stalled = run(plan)
        assert stalled == pytest.approx(baseline + 0.5)
        assert plan.fired("wal-stall") >= 1

    def test_sim_waiter_lock_timeout(self) -> None:
        """In simulated time the timeout races the blocker deterministically."""
        from repro.sim.client import SimWaiter

        sim = Simulator()
        db = make_bank_db(EngineConfig.postgres().with_lock_timeout(0.5))
        outcome: dict[str, object] = {}

        def holder() -> None:
            s = Session(db, waiter=SimWaiter(sim))
            s.begin("holder")
            s.update("Saving", 1, {"Balance": 1.0})
            sim.sleep(2.0)  # hold the lock well past the waiter's timeout
            s.commit()

        def waiter() -> None:
            sim.sleep(0.1)
            s = Session(db, waiter=SimWaiter(sim))
            s.begin("waiter")
            try:
                s.update("Saving", 1, {"Balance": 2.0})
                outcome["result"] = "acquired"
            except LockTimeout:
                outcome["result"] = "timeout"
                outcome["at"] = sim.now

        sim.spawn(holder)
        sim.spawn(waiter)
        sim.run_for(5.0)
        sim.shutdown()
        assert outcome["result"] == "timeout"
        assert outcome["at"] == pytest.approx(0.6)  # 0.1 start + 0.5 timeout


# ----------------------------------------------------------------------
# Client death in the threaded driver
# ----------------------------------------------------------------------
def test_client_death_stops_workers_cleanly() -> None:
    db = make_bank_db(customers=3)
    db.install_faults(FaultPlan([FaultSpec("client-death")]))
    driver = ThreadedDriver(
        db,
        SmallBankTransactions(),
        ThreadedDriverConfig(
            mpl=2, customers=3, hotspot=2, duration=0.2, join_grace=5.0
        ),
    )
    stats = driver.run()  # workers die immediately; run() still returns
    assert stats.total_commits == 0
    assert db.faults.fired("client-death") == 2


# ----------------------------------------------------------------------
# Chaos simulation: zero MVSG cycles under every fixing strategy
# ----------------------------------------------------------------------
#: Strategies whose committed histories must stay serializable on the
#: PostgreSQL-style platform (base-si is *expected* to admit write skew).
FIXING_STRATEGIES = (
    "materialize-wt",
    "promote-wt-upd",
    "materialize-all",
    "promote-all",
)


def run_chaos_sim(strategy: str):
    """One simulation run under disk hiccups, spurious commit aborts and
    expiring lock waits, ridden out by an exponential-backoff retry
    policy; returns (stats, MVSG report, plan)."""
    seed = 1
    plan = FaultPlan(
        [
            FaultSpec("wal-stall", probability=0.3, magnitude=0.02),
            FaultSpec("abort-at-commit", probability=0.03),
            FaultSpec("lock-timeout", probability=0.05),
        ],
        seed=seed,
    )
    checkers = []
    config = SimulationConfig(
        strategy=strategy,
        platform="postgres",
        mpl=8,
        customers=400,
        hotspot=40,
        ramp_up=0.5,
        measure=1.5,
        seed=seed,
    )
    stats = run_once(
        config,
        fault_plan=plan,
        retry=RetryPolicy.exponential(max_attempts=4),
        on_database=lambda db: checkers.append(SerializabilityChecker(db)),
    )
    return stats, checkers[0].report(), plan


@pytest.mark.parametrize("strategy", FIXING_STRATEGIES)
def test_fixing_strategies_survive_chaos(strategy: str) -> None:
    stats, report, plan = run_chaos_sim(strategy)

    # Chaos actually happened ...
    assert plan.fired("wal-stall") > 0
    assert plan.fired("abort-at-commit") > 0
    # ... the system made progress through it ...
    assert stats.total_commits > 0
    assert stats.total_retries > 0
    # ... and no anomaly slipped into the committed history.
    assert report.serializable, report.describe()


def test_chaos_is_deterministic() -> None:
    """Same seed, same chaos: the whole run replays identically."""
    stats_a, report_a, plan_a = run_chaos_sim("materialize-wt")
    stats_b, report_b, plan_b = run_chaos_sim("materialize-wt")
    assert stats_a.commits == stats_b.commits
    assert stats_a.aborts == stats_b.aborts
    assert stats_a.retries == stats_b.retries
    assert dict(plan_a.injections) == dict(plan_b.injections)
    assert report_a.committed_count == report_b.committed_count
