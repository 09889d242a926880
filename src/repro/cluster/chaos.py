"""Seeded distributed chaos harness (DESIGN.md §13).

Runs the money-conserving SmallBank mix (``"conserving"``: Balance +
Amalgamate, so the cluster-wide balance sum is invariant under *any*
interleaving of commits and aborts — atomicity, not luck, is what the
ledger check certifies) at MPL :attr:`ChaosConfig.mpl` over a live
:class:`~repro.cluster.Cluster` while a fault plan injects network faults
(dropped / delayed / duplicated frames, connection resets), kills and
restarts shards mid-flight, and crashes the 2PC coordinator inside its
in-doubt window.  The clients are a
:class:`~repro.workload.driver.ThreadedDriver` under :data:`CHAOS_RETRY`.

After the storm the harness drives recovery to a fixed point — every
crashed shard restarted, every in-doubt or orphaned-prepared gtid
settled through the coordinator's decision log — and then certifies:

* **zero in-doubt transactions** remain anywhere;
* the **merged history is SI**, and serializable unless the strategy is
  the plain-SI baseline
  (:meth:`~repro.smallbank.strategies.Strategy.certifies`), over the
  durable per-shard histories, salvaged across crashes by
  :meth:`~repro.cluster.fleet.Cluster.crash_shard`;
* the **ledger is exactly conserved**: final balance sum equals the
  initial one;
* every storm thread ended: no client and not the controller raised
  or outlived its join (an error no recovery names kills its client).

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

import contextlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.cluster.fleet import Cluster, ShardFleet
from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    CoordinatorCrashed,
    DatabaseCrashed,
    ReproError,
    ShardUnavailable,
)
from repro.faults import FaultPlan, FaultSpec
from repro.smallbank.strategies import get_strategy
from repro.workload.driver import (
    ThreadedDriver,
    ThreadedDriverConfig,
    ThreadedDriverError,
)
from repro.workload.retry import RetryPolicy


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
    snapshot_isolated: bool
    ledger_conserved: bool
    initial_money: float
    final_money: float
    in_doubt_after_recovery: int
    report_description: str
    #: The clients' request counters (also when one died) and the
    #: controller's ``shard_crashes`` / ``shard_restarts``.
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
        """The CI gate: the strategy's certificate holds, the ledger is
        conserved, nothing is left in doubt, no shard process is left
        behind, every storm thread ended cleanly."""
        return (
            get_strategy(self.config.strategy).certifies(self)
            and self.ledger_conserved
            and self.in_doubt_after_recovery == 0
            and self.orphan_processes == 0
            and not self.thread_failures
        )

    def to_record(self) -> dict:
        plan = build_fault_plan(self.config)
        checks = {
            "serializable": self.serializable,
            "snapshot_isolated": self.snapshot_isolated,
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


#: The storm's recovery from each error: an ordinary abort moves on to a
#: new request, a lost wire or shard is retried after 10 then 20 ms, and a
#: coordinator crash is never re-run (the in-doubt resolver settles it).
CHAOS_RETRY = RetryPolicy(
    max_attempts=3,
    base_backoff=0.01,
    max_backoff=0.02,
    retryable=(ConnectionClosed, DatabaseCrashed),
    non_retryable=(ApplicationRollback, CoordinatorCrashed),
)

#: Chaos counter -> the wire code it counts in the run's abort breakdown;
#: ``aborts`` counts every other reason.
FAILURE_COUNTERS = {
    "coordinator_crashes_seen": CoordinatorCrashed.code,
    "fail_fast": ShardUnavailable.code,
    "crashed_ops": DatabaseCrashed.code,
    "disconnects": ConnectionClosed.code,
}


def _chaos_controller(
    cluster: Cluster,
    plan: FaultPlan,
    stop: threading.Event,
    counters: "dict[str, int]",
) -> None:
    """Crash/restart shards on the plan's schedule (round-robin victims).

    The restart always happens — even when the stop flag is raised
    during the downtime window — so the controller never exits leaving a
    shard dark.  It is the only writer of ``counters``.
    """
    victim = 0
    while not stop.wait(POLL):
        if not plan.should_fire("shard-crash"):
            continue
        shard = victim % cluster.shard_count
        victim += 1
        cluster.crash_shard(shard)
        counters["shard_crashes"] += 1
        stop.wait(plan.magnitude("shard-crash"))
        cluster.restart_shard(shard)
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
    storm = {"shard_crashes": 0, "shard_restarts": 0}
    failures: "list[str]" = []
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

            def control() -> None:
                try:
                    _chaos_controller(cluster, plan, stop, storm)
                except Exception as exc:  # fails the soak, by name
                    failures.append(f"chaos-controller: {exc!r}")

            controller = threading.Thread(
                target=control, name="chaos-controller", daemon=True
            )
            controller.start()
            driver = ThreadedDriver(
                None,
                get_strategy(config.strategy).transactions(),
                ThreadedDriverConfig(
                    mix="conserving",
                    customers=config.customers,
                    hotspot=config.customers,
                    mpl=config.mpl,
                    duration=config.duration,
                    seed=config.seed,
                    join_grace=30.0,
                    stats_window=(0.0, float("inf")),
                    retry=CHAOS_RETRY,
                ),
                connection=connection,
            )
            try:
                stats = driver.run()
            except ThreadedDriverError as exc:
                stats = exc.stats
                failures.extend(
                    f"chaos-worker-{client}: {error!r}"
                    for client, error in sorted(exc.failures.items())
                )
                failures.extend(
                    f"chaos-worker-{client}: still running after its join"
                    for client in exc.stuck
                )
            finally:
                stop.set()
                controller.join(timeout=30.0)
            aborts = stats.abort_breakdown()
            requests = {"commits": stats.total_commits}
            for name, code in FAILURE_COUNTERS.items():
                requests[name] = aborts.pop(code, 0)
            requests["aborts"] = sum(aborts.values())
            if controller.is_alive():
                failures.append("chaos-controller: still running after its join")
            # --- recovery to a fixed point, with no fault armed -------
            # (a dropped STATS reply would cost the check an RPC deadline)
            cluster.install_faults(None)
            connection.install_faults(None)
            cluster.recover_crashed()  # controller normally restarts all
            deadline = time.monotonic() + 10.0
            while True:
                with contextlib.suppress(ReproError):
                    connection.resolve_in_doubt()
                connection.flush()  # the re-delivered decisions have landed
                pending = cluster.pending_2pc_gtids()
                if not pending or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            router_counters = connection.counters()
        finally:
            connection.close()
        final_money = cluster.total_money()
        report = merge_shard_histories(cluster.histories())
        distributed = sum(
            1 for txn in report.transactions.values() if txn.is_distributed
        )
        result = ChaosResult(
            config=config,
            serializable=report.serializable,
            snapshot_isolated=report.snapshot_isolated,
            ledger_conserved=final_money == initial_money,
            initial_money=initial_money,
            final_money=final_money,
            in_doubt_after_recovery=len(pending),
            report_description=report.describe(),
            counters={**requests, **storm},
            router_counters=router_counters,
            fault_injections={
                point: count
                for point, count in plan.injections.items()
                if count
            },
            fault_opportunities=dict(plan.opportunities),
            shard_restarts=storm["shard_restarts"],
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
