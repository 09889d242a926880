"""Seeded distributed chaos harness (DESIGN.md §13).

Runs a money-conserving SmallBank mix (Balance + Amalgamate, so the
cluster-wide balance sum is invariant under *any* interleaving of commits
and aborts — atomicity, not luck, is what the ledger check certifies) at
MPL :attr:`ChaosConfig.mpl` over a live :class:`~repro.cluster.Cluster`
while a fault plan injects network faults (dropped / delayed / duplicated
frames, connection resets), kills and restarts shards mid-flight, and
crashes the 2PC coordinator inside its in-doubt window.

After the storm the harness drives recovery to a fixed point — every
crashed shard restarted, every in-doubt or orphaned-prepared gtid
settled through the coordinator's decision log — and then certifies:

* **zero in-doubt transactions** remain anywhere;
* the **merged MVSG is acyclic** (cluster-serializable) over the
  durable per-shard histories, salvaged across crashes by
  :meth:`~repro.cluster.fleet.Cluster.crash_shard`;
* the **ledger is exactly conserved**: final balance sum equals the
  initial one;
* every storm thread ended: none raised or outlived its join.

One known observability gap, by design: an in-doubt gtid whose commit is
re-delivered *after* a shard restart replays from the durable prepare's
redo with no live transaction object, so no recorder observes it.  Its
effects are durable and its absence from the merged graph cannot
manufacture a cycle (a missing node only removes edges); the run's
``in_doubt_commits`` counter bounds how many such gaps exist.

Entry point: :func:`run_chaos`, run once per seed by ``python -m
repro.cluster --chaos-smoke [--seed S ...]``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.cluster.fleet import Cluster, ShardFleet
from repro.cluster.router import ClusterConnection
from repro.errors import (
    ConnectionClosed,
    CoordinatorCrashed,
    DatabaseCrashed,
    ReproError,
    ShardUnavailable,
    TransactionAborted,
)
from repro.faults import FaultPlan, FaultSpec
from repro.smallbank import programs as names
from repro.smallbank.schema import customer_name
from repro.smallbank.strategies import get_strategy


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos soak: cluster shape, workload and storm length.  The
    fault schedule is fixed by :func:`build_fault_plan` and scales with
    :attr:`duration`."""

    shards: int = 2
    customers: int = 40
    mpl: int = 8
    duration: float = 4.0
    seed: int = 11
    isolation: str = "si"
    strategy: str = "promote-all"
    #: ``"inproc"`` runs every shard server inside this interpreter
    #: (:class:`~repro.cluster.fleet.Cluster`); ``"multiproc"`` launches
    #: one OS process per shard (:class:`~repro.cluster.fleet.ShardFleet`)
    #: and drives crash/recovery over the control channel.
    process_model: str = "inproc"


#: Seconds between the chaos controller's looks at the shard-crash point.
POLL = 0.05


@dataclass
class ChaosResult:
    """Everything a bench record or CI gate needs from one soak."""

    config: ChaosConfig
    serializable: bool
    ledger_conserved: bool
    initial_money: float
    final_money: float
    in_doubt_after_recovery: int
    report_description: str
    counters: "dict[str, int]" = field(default_factory=dict)
    router_counters: "dict[str, int]" = field(default_factory=dict)
    fault_injections: "dict[str, int]" = field(default_factory=dict)
    fault_opportunities: "dict[str, int]" = field(default_factory=dict)
    shard_restarts: int = 0
    global_transactions: int = 0
    cross_shard_transactions: int = 0
    #: Shard child processes still alive after shutdown (multiproc only;
    #: always 0 inproc).  Any non-zero value is a process-leak bug.
    orphan_processes: int = 0
    elapsed: float = 0.0
    #: ``"<thread>: <why>"`` per storm thread that raised or outlived its join.
    thread_failures: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The CI gate: serializable, conserved, nothing left in doubt,
        no shard process left behind, every storm thread ended cleanly."""
        return (
            self.serializable
            and self.ledger_conserved
            and self.in_doubt_after_recovery == 0
            and self.orphan_processes == 0
            and not self.thread_failures
        )

    def to_record(self) -> dict:
        plan = build_fault_plan(self.config)
        checks = {
            "serializable": self.serializable,
            "ledger_conserved": self.ledger_conserved,
            "in_doubt_after_recovery": self.in_doubt_after_recovery,
        }
        if self.thread_failures:
            checks["thread_failures"] = self.thread_failures
        return {
            "benchmark": "chaos_cluster",
            "config": asdict(self.config),
            "ok": self.ok,
            "checks": checks,
            "initial_money": self.initial_money,
            "final_money": self.final_money,
            "counters": dict(self.counters),
            "router": dict(self.router_counters),
            "faults": {
                "plan": json.loads(plan.to_json())["specs"],
                "injections": dict(self.fault_injections),
                "opportunities": dict(self.fault_opportunities),
            },
            "shard_restarts": self.shard_restarts,
            "global_transactions": self.global_transactions,
            "cross_shard_transactions": self.cross_shard_transactions,
            "process_model": self.config.process_model,
            "orphan_processes": self.orphan_processes,
            "report": self.report_description,
            "elapsed": round(self.elapsed, 3),
        }


def build_fault_plan(config: ChaosConfig) -> FaultPlan:
    """The seeded fault schedule for one soak.

    Network faults hit outbound response frames once 200 have passed
    (resets after 400); every delivered commit decision may be delivered
    twice; the coordinator crashes inside its in-doubt window at most
    twice; one shard dies for 0.3 s a fifth of the way into the storm.
    """
    return FaultPlan(
        [
            FaultSpec("net-drop-frame", probability=0.01, start_after=200),
            FaultSpec(
                "net-delay-frame",
                probability=0.01,
                magnitude=0.01,
                start_after=200,
            ),
            FaultSpec("conn-reset", probability=0.005, start_after=400),
            FaultSpec("net-dup-decision", probability=0.1),
            FaultSpec(
                "coordinator-crash-window",
                probability=0.25,
                max_fires=2,
                start_after=2,
            ),
            FaultSpec(
                "shard-crash",
                probability=1.0,
                start_after=round(0.2 * config.duration / POLL),
                max_fires=1,
                magnitude=0.3,
            ),
        ],
        seed=config.seed,
    )


def _quiet(callable_) -> None:
    try:
        callable_()
    except ReproError:
        pass


def _worker_loop(
    index: int,
    connection: ClusterConnection,
    config: ChaosConfig,
    stop: threading.Event,
    counters: "dict[str, int]",
    lock: threading.Lock,
    txns,
) -> None:
    """One MPL slot: run random conserving programs until told to stop.

    Every error class has a recovery action — retry, re-session, back
    off — so the worker survives anything the fault plan throws and the
    soak measures the *system's* self-healing, not the client's luck.
    """
    rng = random.Random(f"chaos-worker/{config.seed}/{index}")

    def bump(key: str) -> None:
        with lock:
            counters[key] += 1

    session = connection.session()
    while not stop.is_set():
        # 40 % read-mostly Balance checks, the rest cross-shard-capable
        # Amalgamates (the 2PC drivers).  Customer ids are 1-based (the
        # SmallBank population loads customers 1..N).
        if rng.random() < 0.4:
            program = names.BALANCE
            args: dict = {"N": customer_name(rng.randint(1, config.customers))}
        else:
            first = rng.randint(1, config.customers)
            second = rng.randint(1, config.customers - 1)
            if second >= first:
                second += 1
            program = names.AMALGAMATE
            args = {"N1": customer_name(first), "N2": customer_name(second)}
        try:
            txns.run(session, program, args)
            bump("commits")
        except TransactionAborted:
            bump("aborts")  # ordinary serialization/SSI abort: just retry
            _quiet(session.rollback)
        except CoordinatorCrashed:
            # Outcome unknown; the resolver settles the gtid from the
            # decision log.  Nothing for the worker to do but move on.
            bump("coordinator_crashes_seen")
            _quiet(session.rollback)
        except ShardUnavailable:
            bump("fail_fast")  # health said "down" without dialing
            _quiet(session.rollback)
            stop.wait(0.01)
        except DatabaseCrashed:
            bump("crashed_ops")  # shard died mid-operation
            _quiet(session.rollback)
            stop.wait(0.02)
        except ConnectionClosed:
            bump("disconnects")  # dropped frame deadline, reset, EOF
            _quiet(session.rollback)
            stop.wait(0.02)
        except ReproError:
            bump("other_errors")
            _quiet(session.rollback)
    _quiet(session.close)


def _chaos_controller(
    cluster: Cluster,
    plan: FaultPlan,
    stop: threading.Event,
    counters: "dict[str, int]",
    lock: threading.Lock,
) -> None:
    """Crash/restart shards on the plan's schedule (round-robin victims).

    The restart always happens — even when the stop flag is raised
    during the downtime window — so the controller never exits leaving a
    shard dark.
    """
    victim = 0
    while not stop.wait(POLL):
        if not plan.should_fire("shard-crash"):
            continue
        shard = victim % cluster.shard_count
        victim += 1
        cluster.crash_shard(shard)
        with lock:
            counters["shard_crashes"] += 1
        stop.wait(plan.magnitude("shard-crash"))
        cluster.restart_shard(shard)
        with lock:
            counters["shard_restarts"] += 1


#: The harness class behind each :attr:`ChaosConfig.process_model`.
PROCESS_MODELS = {"inproc": Cluster, "multiproc": ShardFleet}


def _build_cluster(config: ChaosConfig, *, obs=None) -> Cluster:
    """The cluster under test, per :attr:`ChaosConfig.process_model`."""
    harness = PROCESS_MODELS.get(config.process_model)
    if harness is None:
        raise ValueError(
            f"unknown process_model {config.process_model!r}; "
            f"known: {', '.join(PROCESS_MODELS)}"
        )
    return harness(
        config.shards,
        customers=config.customers,
        isolation=config.isolation,
        seed=config.seed,
        obs=obs,
    )


def run_chaos(config: ChaosConfig = ChaosConfig(), *, obs=None) -> ChaosResult:
    """One full soak: storm, recover to a fixed point, certify.

    With ``process_model="multiproc"`` the shard servers run as child
    processes: engine/server fault points fire from each child's own
    rebuilt copy of the plan (same seed, independent draw sequences), so
    :attr:`ChaosResult.fault_injections` only counts parent-side points
    (decision duplication, coordinator crashes, shard-crash scheduling);
    the certification checks gain "no orphaned shard processes".
    """
    from repro.analysis import merge_shard_histories

    plan = build_fault_plan(config)
    txns = get_strategy(config.strategy).transactions()
    counters = {
        "commits": 0,
        "aborts": 0,
        "coordinator_crashes_seen": 0,
        "fail_fast": 0,
        "crashed_ops": 0,
        "disconnects": 0,
        "other_errors": 0,
        "shard_crashes": 0,
        "shard_restarts": 0,
    }
    lock = threading.Lock()
    started = time.monotonic()
    cluster = _build_cluster(config, obs=obs)
    try:
        initial_money = cluster.total_money()
        cluster.install_faults(plan)
        connection = cluster.connect(
            fault_plan=plan,
            obs=obs,
            pool_size=config.mpl,
            rpc_deadline=0.5,
            unhealthy_after=2,
        )
        try:
            connection.start_heartbeats(0.05)
            connection.start_in_doubt_resolver(0.05)
            stop = threading.Event()
            failures: "list[str]" = []

            def guarded(target, *args) -> None:
                """``target(*args)``; an exception it raises fails the soak."""
                try:
                    target(*args)
                except BaseException as exc:
                    failures.append(f"{threading.current_thread().name}: {exc!r}")
                    raise

            workers = [
                threading.Thread(
                    target=guarded,
                    args=(_worker_loop, i, connection, config, stop, counters, lock, txns),
                    name=f"chaos-worker-{i}",
                    daemon=True,
                )
                for i in range(config.mpl)
            ]
            controller = threading.Thread(
                target=guarded,
                args=(_chaos_controller, cluster, plan, stop, counters, lock),
                name="chaos-controller",
                daemon=True,
            )
            threads = [*workers, controller]
            for thread in threads:
                thread.start()
            time.sleep(config.duration)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
                if thread.is_alive():
                    failures.append(f"{thread.name}: still running after its join")
            # --- recovery to a fixed point ----------------------------
            cluster.recover_crashed()  # controller normally restarts all
            deadline = time.monotonic() + 10.0
            while True:
                _quiet(connection.resolve_in_doubt)
                pending = cluster.pending_2pc_gtids()
                if not pending or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            router_counters = connection.counters()
        finally:
            connection.close()
        cluster.install_faults(None)
        final_money = cluster.total_money()
        report = merge_shard_histories(cluster.histories())
        distributed = sum(
            1 for txn in report.transactions.values() if txn.is_distributed
        )
        result = ChaosResult(
            config=config,
            serializable=report.serializable,
            ledger_conserved=final_money == initial_money,
            initial_money=initial_money,
            final_money=final_money,
            in_doubt_after_recovery=len(pending),
            report_description=report.describe(),
            counters=counters,
            router_counters=router_counters,
            fault_injections={
                point: count
                for point, count in plan.injections.items()
                if count
            },
            fault_opportunities=dict(plan.opportunities),
            shard_restarts=counters["shard_restarts"],
            global_transactions=len(report.transactions),
            cross_shard_transactions=distributed,
            elapsed=time.monotonic() - started,
            thread_failures=failures,
        )
    finally:
        cluster.shutdown()
    if config.process_model == "multiproc":
        result.orphan_processes = cluster.alive_count
        result.counters["forced_kills"] = cluster.kill_count
    return result
