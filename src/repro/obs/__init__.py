"""``repro.obs`` — zero-overhead-by-default observability (DESIGN.md §10).

Three parts:

* :mod:`repro.obs.trace` — a structured trace of transaction lifecycle
  events, dumpable to JSONL and consumable by the MVSG checker;
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket latency histograms with JSON and Prometheus expositions;
* :class:`Observability` — the bundle the engine, session layer and
  drivers talk to.  It owns the canonical metric names and pre-registers
  every engine-level instrument, so an exported registry always carries
  the full schema (WAL batch sizes, SSI aborts, ...) even when a counter
  never fired.

The overhead contract: nothing in the hot paths allocates, locks or even
calls a function unless an :class:`Observability` is installed — every
hook in the engine is gated on an ``is not None`` check of one attribute,
the same pattern the fault layer uses.  With no instance installed, seed
figures are bit-identical.

``clock`` decides what timestamps mean: wall-clock seconds for threaded
runs (the default), simulated seconds when the simulation runner installs
the bundle (it rebinds the clock to ``sim.now`` via :meth:`use_clock`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import EVENT_KINDS, OWN_WRITE_TS, TraceEvent, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids engine cycle)
    from repro.engine.engine import WaitOn
    from repro.engine.locks import RowId
    from repro.engine.transaction import Transaction
    from repro.engine.wal import WalRecord

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceRecorder",
    "TraceEvent",
    "EVENT_KINDS",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "OWN_WRITE_TS",
]

#: Attempt-count buckets for the retry histograms.
ATTEMPT_BUCKETS = (1, 2, 3, 4, 5, 6, 8, 10)


class Observability:
    """Metrics registry + optional trace recorder + the clock for both.

    Install on a database with
    :meth:`repro.engine.engine.Database.install_observability`; the
    threaded driver and the simulation runner do this for you when handed
    an instance.  All emit helpers are cheap no-ops for the parts that are
    absent (no trace recorder -> trace events are skipped; the registry is
    always present).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        if clock is None:
            epoch = time.monotonic()
            clock = lambda: time.monotonic() - epoch  # noqa: E731
        self.clock = clock
        m = self.metrics
        # Engine-level instruments, pre-registered so every exposition
        # carries the full schema regardless of what actually fired.
        self.begins = m.counter(
            "repro_txn_begins_total", help="Transactions started"
        )
        self.commits = m.counter(
            "repro_txn_commits_total", help="Transactions committed"
        )
        self.reads = m.counter(
            "repro_engine_reads_total", help="Row reads served by the engine"
        )
        self.writes = m.counter(
            "repro_engine_writes_total", help="Row writes staged by the engine"
        )
        self.commit_path = m.histogram(
            "repro_commit_path_seconds",
            help="Commit entry to durable acknowledgement",
        )
        self.lock_wait = m.histogram(
            "repro_lock_wait_seconds", help="Row-lock wait durations"
        )
        self.lock_waits_total = m.counter(
            "repro_lock_waits_total", help="Row-lock waits entered"
        )
        self.lock_timeouts = m.counter(
            "repro_lock_timeouts_total", help="Lock waits that expired"
        )
        self.wal_flush = m.histogram(
            "repro_wal_flush_seconds", help="WAL flush durations"
        )
        self.wal_batch = m.histogram(
            "repro_wal_batch_size",
            help="Records per WAL flush",
            buckets=SIZE_BUCKETS,
        )
        self.wal_last_batch = m.gauge(
            "repro_wal_last_batch_size", help="Size of the newest flushed batch"
        )
        self.wal_records = m.counter(
            "repro_wal_records_total", help="WAL records staged"
        )
        self.ssi_aborts = m.counter(
            "repro_ssi_aborts_total",
            help=(
                "Aborts by the SSI certifier (conservative dangerous-"
                "structure detection: every one is a potential false positive)"
            ),
        )
        self.vacuum_reclaimed = m.counter(
            "repro_vacuum_reclaimed_total", help="Versions pruned by vacuum"
        )
        self.chain_max = m.gauge(
            "repro_version_chain_max_length",
            help="Longest committed version chain at last sample",
        )
        self.chain_mean = m.gauge(
            "repro_version_chain_mean_length",
            help="Mean committed version chain length at last sample",
        )
        self.response_time = m.histogram(
            "repro_response_time_seconds",
            help="Per-transaction response time observed by the driver",
        )
        # Network service layer (DESIGN.md §11), pre-registered like the
        # engine schema so an exported registry always carries it.
        self.net_connections = m.gauge(
            "repro_net_connections", help="Currently open server connections"
        )
        self.net_connections_total = m.counter(
            "repro_net_connections_total", help="Server connections accepted"
        )
        self.net_rejected = m.counter(
            "repro_net_rejected_total",
            help="Connections refused at the max-connection limit",
        )
        self.net_protocol_errors = m.counter(
            "repro_net_protocol_errors_total",
            help="Wire-protocol violations observed by the server",
        )
        self.net_rpc_latency = m.histogram(
            "repro_net_rpc_seconds", help="Server-side RPC service time"
        )
        self.net_client_rpc_latency = m.histogram(
            "repro_net_client_rpc_seconds",
            help="Client-observed RPC round-trip time",
        )
        # Distributed chaos / recovery instruments (DESIGN.md §13),
        # pre-registered so the Prometheus/JSON expositions always carry
        # the fault, reconnect and in-doubt schema even on clean runs.
        self.faults_injected = m.counter(
            "repro_faults_injected_total",
            help="Faults fired by the installed FaultPlan",
        )
        self.net_reconnects = m.counter(
            "repro_net_reconnects_total",
            help="Client redials after a connection failure (idempotent ops)",
        )
        self.cluster_in_doubt_resolved_total = m.counter(
            "repro_cluster_in_doubt_resolved_total",
            help="In-doubt gtids resolved by coordinator-decision redelivery",
        )
        self.cluster_coordinator_crashes = m.counter(
            "repro_cluster_coordinator_crashes_total",
            help="Coordinator crashes inside the prepare-to-decision window",
        )
        self.cluster_heartbeats = m.counter(
            "repro_cluster_heartbeats_total",
            help="Shard heartbeat probes sent by the cluster client",
        )
        self.cluster_shards_unhealthy = m.gauge(
            "repro_cluster_shards_unhealthy",
            help="Shards currently marked unhealthy by heartbeat tracking",
        )
        # Fleet / fan-out instruments (DESIGN.md §14).
        self.cluster_fanout_broadcasts = m.counter(
            "repro_cluster_fanout_broadcasts_total",
            help="Per-shard RPC broadcasts, all sent before any reply is read",
        )
        self.cluster_fanout_width = m.histogram(
            "repro_cluster_fanout_width",
            help="Shards addressed per fan-out broadcast",
        )
        self.fleet_spawns = m.counter(
            "repro_fleet_spawns_total",
            help="Shards launched by the cluster harness",
        )
        self.fleet_restarts = m.counter(
            "repro_fleet_restarts_total",
            help="Shard engine crash/recover cycles driven by the cluster "
            "harness",
        )

    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.clock()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (e.g. to simulated time) in place."""
        self.clock = clock
        if self.trace is not None:
            self.trace.clock = clock

    def _emit(self, kind: str, txid: int, label: str, **detail: object) -> None:
        trace = self.trace
        if trace is not None:
            trace.emit(kind, txid, label, at=self.clock(), **detail)

    # ------------------------------------------------------------------
    # Engine hooks (called by Database / Session with an instance installed)
    # ------------------------------------------------------------------
    def engine_begin(self, txn: "Transaction") -> None:
        self.begins.inc()
        self._emit("begin", txn.txid, txn.label, snapshot_ts=txn.snapshot_ts)

    def engine_read(self, txn: "Transaction", row: "RowId", version_ts: int) -> None:
        self.reads.inc()
        self._emit("read", txn.txid, txn.label, row=row, version_ts=version_ts)

    def engine_write(self, txn: "Transaction", row: "RowId") -> None:
        self.writes.inc()
        self._emit("write", txn.txid, txn.label, row=row)

    def engine_commit(self, txn: "Transaction", seconds: float) -> None:
        self.commits.inc()
        self.commit_path.observe(seconds)
        self._emit(
            "commit", txn.txid, txn.label,
            commit_ts=txn.commit_ts, seconds=round(seconds, 9),
        )

    def engine_abort(self, txn: "Transaction", reason: str) -> None:
        self.metrics.counter(
            "repro_txn_aborts_total",
            labels={"reason": reason},
            help="Transactions aborted, by reason tag",
        ).inc()
        if reason == "ssi":
            self.ssi_aborts.inc()
        self._emit("abort", txn.txid, txn.label, reason=reason)

    def engine_wal_stage(self, txn: "Transaction", record: "WalRecord") -> None:
        self.wal_records.inc()
        self._emit(
            "wal-stage", txn.txid, txn.label,
            commit_ts=record.commit_ts, rows=len(record.redo),
        )

    def engine_wal_flush(
        self, txn: "Transaction", batch: int, seconds: float
    ) -> None:
        """A commit's WAL record was flushed; ``batch`` is the number of
        records the flush covered — 1 on the engine's in-memory log, which
        flushes each record in the hold of the commit mutex that appends
        it."""
        self.wal_batch.observe(batch)
        self.wal_last_batch.set(batch)
        self.wal_flush.observe(seconds)
        self._emit(
            "wal-flush", txn.txid, txn.label,
            batch=batch, seconds=round(seconds, 9),
        )

    def lock_wait_start(self, txn: "Transaction", wait: "WaitOn") -> None:
        self.lock_waits_total.inc()
        self._emit(
            "lock-wait-start", txn.txid, txn.label,
            blockers=sorted(wait.blocker_ids),
        )

    def lock_wait_end(
        self, txn: "Transaction", wait: "WaitOn", seconds: float, timed_out: bool
    ) -> None:
        self.lock_wait.observe(seconds)
        if timed_out:
            self.lock_timeouts.inc()
        self._emit(
            "lock-wait-end", txn.txid, txn.label,
            blockers=sorted(wait.blocker_ids),
            seconds=round(seconds, 9), timed_out=timed_out,
        )

    def engine_vacuum(self, reclaimed: int) -> None:
        self.vacuum_reclaimed.inc(reclaimed)

    def engine_version_stats(self, lengths: "list[int]") -> None:
        if lengths:
            self.chain_max.set(max(lengths))
            self.chain_mean.set(sum(lengths) / len(lengths))

    # ------------------------------------------------------------------
    # Network service hooks (repro.net server)
    # ------------------------------------------------------------------
    def net_connection_opened(self, active: int) -> None:
        self.net_connections_total.inc()
        self.net_connections.set(active)

    def net_connection_closed(self, active: int) -> None:
        self.net_connections.set(active)

    def net_connection_rejected(self) -> None:
        self.net_rejected.inc()

    def net_protocol_error(self, kind: str) -> None:
        self.net_protocol_errors.inc()
        self.metrics.counter(
            "repro_net_protocol_errors_total",
            labels={"kind": kind},
            help="Wire-protocol violations observed by the server, by kind",
        ).inc()

    def net_client_rpc(self, op: str, seconds: float, ok: bool) -> None:
        self.net_client_rpc_latency.observe(seconds)
        self.metrics.histogram(
            "repro_net_client_rpc_seconds", labels={"op": op}
        ).observe(seconds)
        self.metrics.counter(
            "repro_net_client_rpcs_total",
            labels={"op": op, "ok": "true" if ok else "false"},
            help="Client RPCs issued, by operation and outcome",
        ).inc()

    def net_rpc(self, op: str, seconds: float, ok: bool) -> None:
        self.net_rpc_latency.observe(seconds)
        self.metrics.histogram(
            "repro_net_rpc_seconds", labels={"op": op}
        ).observe(seconds)
        self.metrics.counter(
            "repro_net_rpcs_total",
            labels={"op": op, "ok": "true" if ok else "false"},
            help="RPCs served, by operation and outcome",
        ).inc()

    # ------------------------------------------------------------------
    # Chaos / cluster-recovery hooks (repro.faults + repro.cluster)
    # ------------------------------------------------------------------
    def fault_injected(self, point: str) -> None:
        self.faults_injected.inc()
        self.metrics.counter(
            "repro_faults_injected_total",
            labels={"point": point},
            help="Faults fired by the installed FaultPlan, by injection point",
        ).inc()

    def net_reconnect(self, op: str) -> None:
        self.net_reconnects.inc()
        self.metrics.counter(
            "repro_net_reconnects_total",
            labels={"op": op},
            help="Client redials after a connection failure, by operation",
        ).inc()

    def cluster_in_doubt_resolved(self, outcome: str) -> None:
        self.cluster_in_doubt_resolved_total.inc()
        self.metrics.counter(
            "repro_cluster_in_doubt_resolved_total",
            labels={"outcome": outcome},
            help="In-doubt gtids resolved by redelivery, by outcome",
        ).inc()

    def cluster_coordinator_crash(self) -> None:
        self.cluster_coordinator_crashes.inc()

    def cluster_heartbeat(self, shard: int, ok: bool) -> None:
        self.cluster_heartbeats.inc()
        self.metrics.counter(
            "repro_cluster_heartbeats_total",
            labels={"shard": shard, "ok": "true" if ok else "false"},
            help="Shard heartbeat probes, by shard and outcome",
        ).inc()

    def cluster_shard_health(self, unhealthy: int) -> None:
        self.cluster_shards_unhealthy.set(unhealthy)

    def cluster_fanout(self, op: str, width: int) -> None:
        """One per-shard broadcast (``scatter_gather``): a round of the
        transaction path or a connection-level sweep."""
        self.cluster_fanout_broadcasts.inc()
        self.cluster_fanout_width.observe(width)
        self.metrics.counter(
            "repro_cluster_fanout_broadcasts_total",
            labels={"op": op},
            help="Fan-out broadcasts, by router operation",
        ).inc()

    def fleet_spawn(self, shard: int) -> None:
        self.fleet_spawns.inc()

    def fleet_restart(self, shard: int) -> None:
        self.fleet_restarts.inc()

    # ------------------------------------------------------------------
    # Driver hooks (program-labelled run accounting)
    # ------------------------------------------------------------------
    def driver_commit(self, program: str, response_time: float, attempts: int) -> None:
        self.response_time.observe(response_time)
        self.metrics.histogram(
            "repro_response_time_seconds", labels={"program": program}
        ).observe(response_time)
        self.metrics.counter(
            "repro_driver_commits_total",
            labels={"program": program},
            help="Committed logical requests per program",
        ).inc()
        self.metrics.histogram(
            "repro_driver_attempts",
            labels={"program": program},
            help="Attempts needed per committed request",
            buckets=ATTEMPT_BUCKETS,
        ).observe(attempts)

    def driver_abort(self, program: str, reason: str) -> None:
        self.metrics.counter(
            "repro_driver_aborts_total",
            labels={"program": program, "reason": reason},
            help="Aborted attempts per program and reason",
        ).inc()

    def driver_rollback(self, program: str) -> None:
        self.metrics.counter(
            "repro_driver_rollbacks_total",
            labels={"program": program},
            help="Business rollbacks per program",
        ).inc()

    def driver_retry(self, program: str) -> None:
        self.metrics.counter(
            "repro_driver_retries_total",
            labels={"program": program},
            help="In-place retries actually attempted per program",
        ).inc()

    def driver_giveup(self, program: str) -> None:
        self.metrics.counter(
            "repro_driver_giveups_total",
            labels={"program": program},
            help="Logical requests abandoned per program",
        ).inc()
