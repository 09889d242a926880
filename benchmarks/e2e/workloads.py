"""The four workloads and one measured round of each.

A *round* is a fresh database (and fresh server processes), a warm-up
and one measured window; everything a round observes comes from outside
the program: ``repro.connect``, ``ShardFleet``, ``SmallBankTransactions.run``,
``run_once``, STATS / ``counters()`` and ``/proc``.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import repro
from repro.analysis import merge_shard_histories
from repro.analysis.recorder import load_history_jsonl, record_database
from repro.cluster import ShardFleet
from repro.engine import EngineConfig
from repro.sim.runner import SimulationConfig, run_once
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.smallbank.schema import CHECKING, SAVING
from repro.sqlmini import parse_cache_stats

import calibrate
import host
import loadgen
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

WARMUP_TXNS = 300
#: Strategy of the measured windows / of the serializability check.
STRATEGY = "base-si"
VERIFY_STRATEGY = "promote-all"
VERIFY_TXNS = 500
#: Ledger tolerance: balances are floats summed in another order.
MONEY_TOLERANCE = 0.05

#: The host's speed is probed this often inside a measured round.  On
#: series recorded while the host was disturbed, one run's tps_ref spread
#: 3-7 % with a probe every 0.05-0.4 s, 8-14 % at 1 s and 8-16 % with
#: probes at the ends of a 2 s round only (README.md has the table).
WINDOW_SECONDS = 0.4

SIM_STRATEGIES = ("base-si", "promote-all", "materialize-all")
SIM_POINT = SimulationConfig(
    platform="postgres", mpl=20, mix="uniform", ramp_up=0.3, measure=2.0
)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # local | tcp | cluster | sim
    mix: str
    clients: int
    servers: int  # server processes beside the load generator
    #: Transactions per client of the fixed-count (per-layer) rounds at
    #: the reference 10 s run; scaled with ``--seconds``.
    count: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local_balance60", "local", "balance60", 1, 0, 40_000),
        Workload("tcp_balance60", "tcp", "balance60", 2, 1, 2_500),
        Workload("cluster2_uniform", "cluster", "uniform", 2, 2, 1_250),
        Workload("sim_uniform_mpl20", "sim", "uniform", 20, 0, 0),
    )
}


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class Backend:
    """A fresh SmallBank database behind ``repro.connect``.

    ``tcp`` and ``cluster`` run their servers as ``python -m repro.net``
    children through :class:`ShardFleet` (one shard = a plain unsharded
    server); ``record=True`` attaches execution recorders for the
    serializability check.
    """

    def __init__(self, workload: Workload, *, record: bool = False) -> None:
        started = time.perf_counter()
        self.kind = workload.backend
        self.fleet = None
        self.recorder = None
        if self.kind == "local":
            db = build_database(
                EngineConfig.postgres(),
                PopulationConfig(customers=loadgen.CUSTOMERS),
            )
            if record:
                self.recorder = record_database(db)
            self.spawn_s = time.perf_counter() - started
            self.connection = repro.connect("local://", database=db)
        else:
            self.fleet = ShardFleet(
                workload.servers,
                customers=loadgen.CUSTOMERS,
                isolation="si",
                record=record,
            )
            self.spawn_s = time.perf_counter() - started
            try:
                url = self.fleet.url
                if self.kind == "tcp":
                    url = "tcp://%s:%d" % self.fleet.addresses[0]
                self.connection = repro.connect(
                    url, pool_size=workload.clients, timeout=30.0
                )
            except BaseException:
                self.fleet.shutdown()
                raise
        self.open_s = time.perf_counter() - started

    @property
    def pids(self) -> "list[int]":
        if self.fleet is None:
            return []
        return [shard.proc.pid for shard in self.fleet.shards]

    def server_stats(self) -> "list[dict]":
        """Live STATS of every server process (empty for ``local``)."""
        if self.kind == "tcp":
            return [self.connection.stats()]
        if self.kind == "cluster":
            return self.connection.stats()["shard_stats"]
        return []

    def histories(self) -> dict:
        """Recorded committed histories by shard (``record=True`` only)."""
        if self.recorder is not None:
            return {0: self.recorder.committed}
        OUT_DIR.mkdir(exist_ok=True)
        histories = {}
        for index, shard in enumerate(self.fleet.shards):
            path = OUT_DIR / f"history-{shard.proc.pid}.jsonl"
            shard.dump_history(str(path))
            histories[index] = load_history_jsonl(path)
            path.unlink()
        return histories

    def settle(self) -> None:
        """Deliver the read-only COMMITs the wire clients deferred, so the
        servers hold no transaction the clients consider finished."""
        if self.fleet is not None:
            self.connection.flush()

    def close(self) -> "list[str]":
        """Settle, disconnect, stop the servers; returns what leaked."""
        violations = []
        try:
            self.settle()
            self.connection.close()
        finally:
            if self.fleet is not None:
                self.fleet.shutdown()
        if self.fleet is not None:
            if self.fleet.alive_count or self.fleet.kill_count:
                violations.append(
                    f"server processes: {self.fleet.alive_count} alive, "
                    f"{self.fleet.kill_count} force-killed"
                )
            for index, shard in enumerate(self.fleet.shards):
                stats = shard.stats
                if stats is None:
                    violations.append(f"server {index}: no final STATS")
                    continue
                leaked = {
                    "connections": stats["connections_active"],
                    "transactions": stats["active_transactions"],
                    "sessions": stats["sessions_opened"]
                    - stats["sessions_closed"],
                }
                if any(leaked.values()):
                    violations.append(f"server {index} leaked {leaked}")
        return violations


def total_money(connection) -> float:
    """Sum of all balances, read through the connection's own sessions."""
    session = connection.session()
    try:
        session.begin("audit")
        total = 0.0
        for table in (SAVING, CHECKING):
            for _key, row in session.scan(table, description="audit"):
                total += row["Balance"]
        session.commit()
    finally:
        session.close()
    return total


# ----------------------------------------------------------------------
# Threaded rounds
# ----------------------------------------------------------------------
def _counters(backend: Backend) -> dict:
    return {
        "rpcs": [stats["rpcs_total"] for stats in backend.server_stats()],
        "router": (
            backend.connection.counters() if backend.kind == "cluster" else {}
        ),
        "wal": len(backend.connection.db.wal) if backend.kind == "local" else 0,
        "parse_misses": parse_cache_stats()[1],
    }


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def threaded_round(
    workload: Workload,
    seed,
    *,
    seconds: float = math.inf,
    count: float = math.inf,
    traced: bool = False,
    strategy: str = STRATEGY,
    record: bool = False,
    with_backend=None,
) -> dict:
    """One round: set up, warm up, measure, audit, tear down.

    Measures for ``seconds`` of wall time, in windows of
    :data:`WINDOW_SECONDS` with a speed probe between them, or (the
    per-layer pass) ``count`` requests per client in one window.  Every
    number in the result is as measured; ``factor`` is the round's speed
    factor (see :mod:`calibrate`) and ``setup_factor`` that of its set-up,
    from one probe before the spawn and one after the warm-up.  ``with_backend(backend)`` runs after the audit,
    while the servers are still up (live micro-measurements, history
    dumps); its result is returned under ``"extra"``.
    """
    transactions = get_strategy(strategy).transactions()
    setup_probe = calibrate.probe()
    backend = Backend(workload, record=record)
    violations: "list[str]" = []
    try:
        connection = backend.connection
        money = total_money(connection)

        def clients(stream: str, programs: list) -> "list[loadgen.Client]":
            return [
                loadgen.Client(
                    connection,
                    programs[c],
                    workload.mix,
                    f"{seed}/{stream}{c}",
                    c,
                    workload.clients,
                )
                for c in range(workload.clients)
            ]

        untraced = [transactions] * workload.clients
        warm, warm_s = loadgen.run_together(
            clients("warmup/", untraced), count=WARMUP_TXNS
        )

        traces = [tracing.ClientTrace(c) for c in range(workload.clients)]
        measured = clients(
            "",
            [tracing.TracedTransactions(transactions, t) for t in traces]
            if traced
            else untraced,
        )
        counters = _counters(backend)
        results: "list[loadgen.ClientResult]" = []
        wall = reference_wall = own_cpu = 0.0
        server_cpu = [0.0] * len(backend.pids)
        windows = (
            1 if seconds == math.inf else max(1, round(seconds / WINDOW_SECONDS))
        )
        probe = calibrate.probe()
        setup_factor = calibrate.factor(setup_probe, probe)
        with tracing.traced_statements() if traced else nullcontext():
            for _ in range(windows):
                own = time.process_time()
                servers = [host.cpu_seconds(pid) for pid in backend.pids]
                window, window_wall = loadgen.run_together(
                    measured,
                    count=count,
                    seconds=seconds / windows,
                )
                own_cpu += time.process_time() - own
                for index, pid in enumerate(backend.pids):
                    server_cpu[index] += host.cpu_seconds(pid) - servers[index]
                probe, before = calibrate.probe(), probe
                results += window
                wall += window_wall
                reference_wall += window_wall * calibrate.factor(before, probe)
        after = _counters(backend)

        backend.settle()
        started = time.perf_counter()
        pruned = connection.vacuum()
        vacuum_s = time.perf_counter() - started

        expected = money + sum(r.ledger for r in warm + results)
        found = total_money(connection)
        if abs(found - expected) > MONEY_TOLERANCE:
            violations.append(
                f"ledger: bank holds {found:.2f}, committed requests "
                f"account for {expected:.2f}"
            )
        rss = host.own_peak_rss_mb() + sum(
            host.peak_rss_mb(pid) for pid in backend.pids
        )
        extra = with_backend(backend) if with_backend is not None else None
    finally:
        violations += backend.close()

    latencies = sorted(sample for r in results for sample in r.latencies)
    commits = len(latencies)
    errors = [e for r in warm + results for e in r.errors]
    if errors:
        violations.append(f"{len(errors)} unexpected errors: {errors[:5]}")
    if not commits:
        raise RuntimeError(f"{workload.name}: nothing committed; {violations}")
    return {
        "wall": wall,
        # Wall-weighted over the windows: tps / factor is commits per
        # reference second.
        "factor": reference_wall / wall,
        "commits": commits,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "rollbacks": sum(r.rollbacks for r in results),
        "aborts": sum(r.aborts for r in results),
        # Calls of SmallBankTransactions.run: every abort was one, too.
        "program_runs": sum(
            r.commits + r.rollbacks + r.aborts + len(r.errors) for r in results
        ),
        "client_seconds": sum(r.elapsed for r in results),
        "tps": commits / wall,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "cpu_us_per_txn": (own_cpu + sum(server_cpu)) / commits * 1e6,
        "peak_rss_mb": rss,
        "setup_s": backend.open_s + warm_s,
        "setup_factor": setup_factor,
        "spawn_s": backend.spawn_s,
        "own_cpu": own_cpu,
        "server_cpu": server_cpu,
        # Each STATS probe counts itself once on every server it asks.
        "rpcs": sum(
            a - b - 1 for a, b in zip(after["rpcs"], counters["rpcs"])
        ),
        "router": {
            key: after["router"][key] - counters["router"].get(key, 0)
            for key in after["router"]
        },
        "wal_records": after["wal"] - counters["wal"],
        "parse_misses": after["parse_misses"] - counters["parse_misses"],
        "vacuum_s": vacuum_s,
        "versions_pruned": pruned,
        "all_commits": commits + sum(r.commits for r in warm),
        "traces": traces if traced else None,
        "extra": extra,
        "violations": violations,
    }


def verify_round(workload: Workload, seed: int) -> dict:
    """The untimed serializability check: :data:`VERIFY_TXNS` recorded
    ``promote-all`` requests through the workload's backend (two clients,
    so transactions really interleave), merged MVSG must be acyclic."""
    if workload.backend == "sim":
        recorders = []
        run_once(
            replace(SIM_POINT, strategy=VERIFY_STRATEGY, measure=0.4, seed=seed),
            on_database=lambda db: recorders.append(record_database(db)),
        )
        histories = {0: recorders[0].committed}
        violations: "list[str]" = []
    else:
        clients = max(2, workload.clients)
        round_ = threaded_round(
            replace(workload, clients=clients),
            f"{seed}.verify",
            count=VERIFY_TXNS // clients,
            strategy=VERIFY_STRATEGY,
            record=True,
            with_backend=Backend.histories,
        )
        histories = round_["extra"]
        violations = round_["violations"]
    started = time.perf_counter()
    report = merge_shard_histories(histories)
    certify_s = time.perf_counter() - started
    if not report.serializable:
        violations.append(f"verify: {report.describe()}")
    certified = len(report.transactions)
    if not certified:
        violations.append("verify: no transaction was recorded")
    return {
        "certify_us_per_txn": certify_s / max(1, certified) * 1e6,
        "certified": certified,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# The simulator workload
# ----------------------------------------------------------------------
def sim_point(config: SimulationConfig) -> dict:
    """One :func:`run_once` call between two probes."""
    probe = calibrate.probe()
    wall, cpu = time.perf_counter(), time.process_time()
    stats = run_once(config)
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    return {
        "wall": wall,
        "cpu": cpu,
        "factor": calibrate.factor(probe, calibrate.probe()),
        "commits": stats.total_commits,
        "aborts": stats.abort_count(),
    }


def sim_cycle(seed: int, scale: float) -> dict:
    """One point per strategy through :func:`run_once` — the path every
    paper figure takes — as one round: the same keys as
    :func:`threaded_round`, one request being one figure point.
    ``scale`` < 1 shortens the simulated window (smoke runs); golden
    values only apply at scale 1."""
    # What run_once repeats before its first simulated transaction:
    # population build and the strategy's program rewrite.
    probe = calibrate.probe()
    started = time.perf_counter()
    build_database(
        EngineConfig.postgres(),
        PopulationConfig(customers=loadgen.CUSTOMERS, seed=seed),
    )
    for strategy in SIM_STRATEGIES:
        get_strategy(strategy).transactions()
    setup_s = time.perf_counter() - started
    setup_factor = calibrate.factor(probe, calibrate.probe())
    points = {
        strategy: sim_point(
            replace(
                SIM_POINT,
                strategy=strategy,
                measure=SIM_POINT.measure * scale,
                seed=seed,
            )
        )
        for strategy in SIM_STRATEGIES
    }
    commits = sum(p["commits"] for p in points.values())
    wall = sum(p["wall"] for p in points.values())
    walls = sorted(p["wall"] for p in points.values())
    return {
        "points": points,
        "wall": wall,
        # Wall-weighted, so tps / factor = commits per reference second.
        "factor": sum(p["wall"] * p["factor"] for p in points.values()) / wall,
        "commits": commits,
        "attempted": len(points),
        "failed": 0,
        "tps": commits / wall,
        # Modelled time has no wall latency: the middle and the slowest
        # of the cycle's points stand in.
        "p50_ms": percentile(walls, 0.50) * 1e3,
        "p95_ms": percentile(walls, 0.95) * 1e3,
        "cpu_us_per_txn": sum(p["cpu"] for p in points.values()) / commits * 1e6,
        "peak_rss_mb": host.own_peak_rss_mb(),
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "violations": [],
    }


def sim_outcomes(cycle: dict) -> dict:
    return {
        strategy: [point["commits"], point["aborts"]]
        for strategy, point in cycle["points"].items()
    }
