"""Shard-aware router: ``cluster://`` backend of the facade (DESIGN.md §12).

:class:`ClusterConnection` fronts N independent
:class:`~repro.net.DatabaseServer` shards behind the ordinary
:class:`repro.api.Connection` surface; :class:`ClusterSession` routes
every statement to the shard owning its partition key and commits with
presumed-abort 2PC — unless the transaction wrote on at most one shard,
in which case it takes the **fast path**: a plain per-shard COMMIT, no
prepare round at all.  A whole transaction *program*
(:meth:`ClusterSession.call_program`) is routed from its arguments
alone: one ``CALL`` to the owning shard, or — an Amalgamate of customers
on two shards — its two parts as four RPCs in three rounds.

The shards keep the snapshot order (Clock-SI, DESIGN.md §12).  A
transaction has one snapshot timestamp on every shard: its first branch
(shard 0 at :meth:`ClusterSession.begin`, a program's first part's
shard) begins at a fresh tick of its shard's clock, advanced first to
the highest timestamp this router has seen
(:attr:`ClusterConnection.clock`, so a client sees what it committed
before), and every later branch — opened on first touch — begins at
exactly that snapshot.  A 2PC commit lands at one timestamp on every
shard, the largest of its prepare timestamps, and a read that meets a
prepared version which may land at or below its snapshot waits on its
shard for the decision.  So every client of the cluster, through any
router, sees each distributed commit on all shards or on none.

The harness that stands up the shards themselves is
:class:`repro.cluster.Cluster` (:mod:`repro.cluster.fleet`).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from repro.api import Connection, Program
from repro.cluster.coordinator import TwoPhaseCoordinator
from repro.cluster.fanout import Outcome, first_error, scatter_gather
from repro.cluster.partition import PARTITION_COLUMNS, HashPartitioner
from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    CoordinatorCrashed,
    DatabaseCrashed,
    DeadlockError,
    LockTimeout,
    ReproError,
    SerializationFailure,
    ShardUnavailable,
    SnapshotTooOld,
    SqlError,
    TransactionStateError,
)
from repro.net.client import NetworkConnection, NetworkSession, RemoteVerbs
from repro.smallbank.schema import ACCOUNT
from repro.sqlmini.ast import Insert, Select, compile_expr, equality_key
from repro.sqlmini.executor import StatementResult, parse_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.obs import Observability

#: What ended a 2PC attempt, first match wins: the flat counter keys
#: ``twopc_aborts`` splits into (anything else is ``twopc_aborts_other``).
_ABORT_KEYS = (
    (LockTimeout, "twopc_aborts_lock_timeout"),
    (SerializationFailure, "twopc_aborts_serialization"),
    (DeadlockError, "twopc_aborts_deadlock"),
    ((ConnectionClosed, DatabaseCrashed), "twopc_aborts_unreachable"),
)


class ClusterSession(RemoteVerbs):
    """One global transaction at a time across the cluster's shards.

    The facade session surface; every operation routes to the branch
    (per-shard :class:`NetworkSession`) owning its partition key.
    The branch labels carry the global transaction id
    (``"Amalgamate#g17"``) so per-shard traces merge back into global
    transactions (:func:`repro.analysis.merge_shard_histories`).
    """

    def __init__(self, cluster: "ClusterConnection") -> None:
        self._cluster = cluster
        #: The current transaction's sessions by shard, and the shards
        #: of those it has not begun on yet (touched).
        self._branches: "dict[int, NetworkSession]" = {}
        self._unbegun: "set[int]" = set()
        self._in_txn = False
        self._tagged = ""
        self._gtid = ""
        self._snapshot_ts = 0

    # ------------------------------------------------------------------
    # Transaction control
    # ------------------------------------------------------------------
    def _stamp(self, label: str) -> None:
        """Name the next global transaction: ``label#g<n>`` on every branch."""
        self._gtid = f"g{next(self._cluster._gtids)}"
        self._tagged = f"{label}#{self._gtid}"

    def begin(self, label: str = "") -> None:
        """Open a global transaction: a session on every shard, and its
        snapshot taken now, by a BEGIN to shard 0 past the router's
        clock.  Every other branch begins at that snapshot on first
        touch (:meth:`_branch`)."""
        if self._in_txn:
            raise TransactionStateError(
                "session already has an active transaction"
            )
        self._stamp(label)
        self._in_txn = True
        first = self._open_in_order(range(len(self._cluster.shards)))[0]
        clock = {"ts": self._cluster.clock}
        self._snapshot_ts = first.start_begin_now(self._tagged, clock)()["snapshot_ts"]
        self._unbegun = set(self._branches) - {0}

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    @property
    def gtid(self) -> str:
        """The current (or last) global transaction id, e.g. ``"g17"``."""
        return self._gtid

    def _open(self, shard: int) -> NetworkSession:
        """Check a session out of ``shard``'s pool; released with the
        transaction (:meth:`_release_branches`)."""
        self._cluster._require_healthy(shard)
        branch = self._branches[shard] = self._cluster.shards[shard].session()
        return branch

    def _open_in_order(self, shards: "Sequence[int]") -> "list[NetworkSession]":
        """:meth:`_open` every shard of ``shards``, in ascending shard order,
        and return the branches in the order given.

        Whatever holds wires on more than one shard takes them in
        ascending shard order, so no two holders can each wait for the
        other's: this method for a transaction's branches, and
        :meth:`ClusterConnection._sweep` and
        :meth:`ClusterConnection.resolve_in_doubt`'s per-shard sessions
        by walking :attr:`ClusterConnection.shards` in order.
        """
        for shard in sorted(shards):
            self._open(shard)
        return [self._branches[shard] for shard in shards]

    def _branch(self, shard: int) -> NetworkSession:
        """``shard``'s branch of the open transaction, begun on first
        touch at the transaction's snapshot (a BEGIN riding on the
        branch's first request).  A shard that vacuumed past the snapshot
        refuses it (:class:`~repro.errors.SnapshotTooOld`): the request's
        caller raises the router's clock to the shard's horizon, so the
        retry's snapshot is past it."""
        branch = self._branches.get(shard)
        if branch is None:
            raise TransactionStateError("no active transaction")
        if shard in self._unbegun:
            self._unbegun.discard(shard)
            snapshot = self._snapshot_ts
            branch.begin(self._tagged, {"ts": snapshot, "snapshot_ts": snapshot})
        return branch

    def commit(self) -> None:
        """Fast path or 2PC, by how many shards this transaction wrote.

        Read-only branches always commit plainly — under SI a read-only
        commit cannot fail, so there is nothing for them to vote on.
        With at most one *writing* branch, atomicity is that single
        shard's local commit and the writer commits plainly too (no
        prepare round — the fast path the benchmark measures).  Two or
        more writers go through the presumed-abort coordinator.
        """
        cluster = self._cluster
        try:
            unbegun = self._unbegun
            branches = [
                self._branches[s] for s in sorted(self._branches) if s not in unbegun
            ]
            writers = [b for b in branches if not b.is_readonly]
            if len(writers) <= 1:
                commit_ts = max([b.commit() or 0 for b in branches], default=0)
                cluster._count("fastpath_commits", ts=commit_ts)
            else:
                for branch in branches:
                    if branch.is_readonly:
                        branch.commit()
                cluster._count(ts=cluster._counted_two_phase(
                    cluster.coordinator.commit_two_phase, self._gtid, writers
                ))
        finally:
            self._in_txn = False
            self._release_branches()

    # ------------------------------------------------------------------
    # Whole programs (DESIGN.md §12.6)
    # ------------------------------------------------------------------
    def call_program(
        self, program: Program, args: "Mapping[str, object]", label: str = ""
    ) -> object:
        """Run one whole transaction program, routed from ``args`` alone.

        ``program.route`` names the arguments holding Account names
        (``cust0000042`` encodes its customer, hence its shard; a name
        that encodes none is asked of shard 0, as :meth:`_shard_for`
        does).  When they all live on one shard the program is **one
        ``CALL`` to that shard and nothing to any other**, its snapshot
        past the router's clock and its commit timestamp the clock's
        next value.  It is routed, sent and counted in this frame, on a
        wire of that shard's pool checked out for it alone.  Otherwise
        its two ``parts`` run under 2PC (:meth:`_call_split`).
        """
        if self._in_txn:
            raise TransactionStateError(
                "session already has an active transaction"
            )
        cluster = self._cluster
        shard_for_name = cluster.partitioner.shard_for_name
        shards = []
        for name in program.route:
            value = args[name]
            try:
                shards.append(shard_for_name(value))
            except (TypeError, ValueError):
                shards.append(0)
        self._stamp(label)
        if shards and shards.count(shards[0]) == len(shards):
            shard = shards[0]
            if cluster._health_enforced:
                cluster._require_healthy(shard)
            branch = cluster.shards[shard].session()
            try:
                result = branch.call_program(
                    program, args, self._tagged, clock={"ts": cluster.clock}
                )
            finally:
                branch.close()
            commit_ts = branch.stamp["ts"]
            with cluster._counter_lock:  # ``_count``, in this frame
                cluster._counters["fastpath_commits"] += 1
                if commit_ts > cluster.clock:
                    cluster.clock = commit_ts
            return result
        named = len(set(shards))
        if named != 2 or len(program.parts) != 2:
            raise SqlError(
                f"cannot route program {label!r}: its arguments name "
                f"{named} shards, it has {len(program.parts)} parts"
            )
        try:
            return cluster._counted_two_phase(
                self._call_split, program.parts, args, shards
            )
        finally:
            self._release_branches()

    def _call_split(
        self,
        parts: "Sequence[Program]",
        args: "Mapping[str, object]",
        shards: "Sequence[int]",
    ) -> object:
        """A two-shard program as four RPCs in three sequential rounds,
        each part on the shard ``call_program`` routed it to (``shards``,
        in the order of ``parts``).

        1. ``CALL first end=prepare:g ts=<clock>`` to the first part's
           shard A: begins past the router's clock, runs, votes; the
           reply names its snapshot and prepare timestamps.
        2. ``CALL second end=prepare:g ts=snapshot_ts=<A's>`` to the second
           part's shard B, with the first part's result as ``carry``:
           begins at A's snapshot, runs, votes.
        3. The coordinator's decision: durable log write of the commit
           timestamp (the larger prepare timestamp), then ``COMMIT_2PC``
           sent to A and B and both replies read (:func:`scatter_gather`,
           from this thread).

        A part that needs a held row lock, or a row a prepared
        transaction wrote, waits on its shard.  Any failure before the
        decision — a NO vote, an abort or a business rollback in either
        part, a lost shard — aborts both parts: the failing ``CALL`` left
        nothing behind on its shard, and the abort is logged and
        delivered to whatever had prepared.
        """
        cluster = self._cluster
        coordinator = cluster.coordinator
        first, second = parts
        gtid, label = self._gtid, self._tagged
        end = f"prepare:{gtid}"
        prepared: "list[NetworkSession]" = []
        coordinator.track(gtid)
        try:
            branch_a, branch_b = self._open_in_order(shards)
            carry = branch_a.call_program(
                first, args, label, end=end, clock={"ts": cluster.clock}
            )
            prepared.append(branch_a)
            snapshot = branch_a.stamp["snapshot_ts"]
            result = branch_b.call_program(
                second, {**args, "carry": carry}, label,
                end=end, clock={"ts": snapshot, "snapshot_ts": snapshot},
            )
            prepared.append(branch_b)
            commit_ts = max(branch_a.stamp["ts"], branch_b.stamp["ts"])
        except BaseException as exc:
            if isinstance(exc, SnapshotTooOld):  # the retry begins past it
                cluster._count(ts=exc.horizon)
            coordinator.abort(gtid, prepared)
            raise
        else:
            coordinator.decide_commit(gtid, prepared, commit_ts)
        finally:
            coordinator.untrack(gtid)
        cluster._count(ts=commit_ts)
        return result

    def rollback(self) -> None:
        try:
            for shard in sorted(self._branches):
                branch = self._branches[shard]
                if branch.in_transaction:
                    branch.rollback()
        finally:
            self._in_txn = False
            self._release_branches()

    def close(self) -> None:
        if self._in_txn:
            self.rollback()
        else:
            self._release_branches()

    def _release_branches(self) -> None:
        branches, self._branches = self._branches, {}
        for shard in sorted(branches):
            branches[shard].close()

    # ------------------------------------------------------------------
    # Routing (the verbs themselves are RemoteVerbs')
    # ------------------------------------------------------------------
    def _shard_for(
        self, table: str, value: object, column: str = "", *, writing: bool = False
    ) -> int:
        """The shard holding ``table``'s row whose ``column`` (default:
        the partition column) is ``value``.

        A value that encodes no customer names no row on any shard, and
        a table without a partition rule is on none: every shard gives
        the same answer ("no such row", ``SchemaError``), so shard 0 is
        asked — unless the caller is ``writing`` a row, which must not
        land where no read will look for it.
        """
        partitioner = self._cluster.partitioner
        try:
            if table == ACCOUNT and column == "CustomerId":
                # Unique but not the partition column; still customer-keyed.
                return partitioner.shard_for_customer(int(value))
            return partitioner.shard_for_row(table, value)
        except (TypeError, ValueError):
            if writing and table in PARTITION_COLUMNS:
                raise SqlError(
                    f"cannot route a write to {table!r}: "
                    f"{value!r} names no customer"
                ) from None
            return 0

    def _owner(self, verb: str, table: str, args: tuple) -> Optional[int]:
        """The one shard ``verb`` can touch, or ``None`` — no single
        owner: ``scan``, and ``lookup_unique`` on a column that does not
        name the customer."""
        column = PARTITION_COLUMNS.get(table)
        if column is None:
            return self._shard_for(table, None)
        if verb == "scan":
            return None
        if verb == "lookup_unique":
            by, value = args
            if by == column or (table == ACCOUNT and by == "CustomerId"):
                return self._shard_for(table, value, by)
            return None
        value = args[0].get(column) if verb == "insert" else args[0]
        return self._shard_for(
            table, value, writing=verb in ("write", "insert", "delete")
        )

    def _statement(self, verb: str, table: str, *args: object) -> object:
        """Forward to the owning shard's branch, or ask every branch —
        all requests sent from this thread before a reply is read — and
        merge: a scan in key order, a lookup's first hit in shard order
        (the column is unique, so at most one shard answers)."""
        shard = self._owner(verb, table, args)
        try:
            if shard is not None:
                return self._branch(shard)._statement(verb, table, *args)
            outcomes = scatter_gather(
                [
                    partial(self._branch(s)._start_statement, verb, table, *args)
                    for s in range(len(self._cluster.shards))
                ],
                op="scan" if verb == "scan" else "lookup",
                obs=self._cluster.obs,
            )
            error = first_error(outcomes)
            if error is not None:
                raise error
        except SnapshotTooOld as exc:
            self._cluster._count(ts=exc.horizon)  # the retry begins past it
            raise
        if verb == "scan":
            return sorted(
                (pair for outcome in outcomes for pair in outcome.value),
                key=lambda pair: repr(pair[0]),
            )
        return next((o.value for o in outcomes if o.value is not None), None)

    # ------------------------------------------------------------------
    # Mini-SQL
    # ------------------------------------------------------------------
    def _route_meta(self, sql: str):
        """``(table, partition-key closure, its column, is-INSERT)`` for
        one statement, cached.

        The closure is the compiled column-free WHERE conjunct
        constraining the table's partition column (or the INSERT value
        for it) — calling it with the call's parameters names the one
        shard the statement can touch.
        """
        meta = self._cluster._route_meta.get(sql)
        if meta is None:
            statement = parse_cached(sql)
            table = statement.table
            column = PARTITION_COLUMNS.get(table)
            expr = None
            if isinstance(statement, Insert):
                if column in statement.columns:
                    expr = statement.values[statement.columns.index(column)]
            elif column is not None:
                expr = equality_key(statement.where, column)
                if expr is None and isinstance(statement, Select) and table == ACCOUNT:
                    # Account is also uniquely customer-keyed.
                    column = "CustomerId"
                    expr = equality_key(statement.where, column)
            key_of = compile_expr(expr) if expr is not None else None
            meta = (table, key_of, column, isinstance(statement, Insert))
            self._cluster._route_meta[sql] = meta
        return meta

    def execute_prepared(
        self,
        sql: str,
        kind: Optional[str],
        params: "dict[str, object]",
    ) -> StatementResult:
        table, key_of, column, inserting = self._route_meta(sql)
        if key_of is None:
            raise SqlError(
                f"cannot route statement on {table!r}: WHERE does not "
                f"constrain the partition column "
                f"{PARTITION_COLUMNS.get(table)!r} by equality"
            )
        shard = self._shard_for(
            table, key_of(None, params), column, writing=inserting
        )
        try:
            return self._branch(shard).execute_prepared(sql, kind, params)
        except SnapshotTooOld as exc:
            self._cluster._count(ts=exc.horizon)  # the retry begins past it
            raise


@dataclass
class ShardHealth:
    """Mutable health record for one shard, maintained by heartbeats."""

    shard: int
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: str = ""

    def snapshot(self) -> dict:
        return {
            "shard": self.shard,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class ClusterConnection(Connection):
    """Facade connection over one :class:`NetworkConnection` per shard.

    Self-healing (DESIGN.md §13): optional heartbeats mark a shard
    unhealthy after ``unhealthy_after`` consecutive failed pings, and
    sessions then *fail fast* with
    :class:`~repro.errors.ShardUnavailable` instead of dialing a dead
    endpoint; the first successful heartbeat restores it.  An optional
    background resolver sweeps shard stats for in-doubt or orphaned
    prepared gtids and re-delivers (or presumes abort for) each via the
    coordinator's :class:`~repro.cluster.coordinator.DecisionLog`.
    Neither thread runs unless explicitly started, so default behaviour
    is unchanged.
    """

    def __init__(
        self,
        addresses: "Sequence[tuple[str, int]]",
        *,
        obs: "Observability | None" = None,
        pool_size: int = 8,
        timeout: Optional[float] = 10.0,
        url: str = "",
        fault_plan: "FaultPlan | None" = None,
        rpc_deadline: Optional[float] = None,
        unhealthy_after: int = 3,
        gtid_base: int = 0,
    ) -> None:
        if not addresses:
            raise ValueError("cluster needs at least one shard address")
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.obs = obs
        self.url = url or "cluster://" + ",".join(
            f"{host}:{port}" for host, port in addresses
        )
        self.partitioner = HashPartitioner(len(addresses))
        if gtid_base < 0:
            raise ValueError(f"gtid_base must be >= 0, got {gtid_base}")
        #: This connection's gtid numbers, shared by its sessions and
        #: threads: ``next`` on a count is one atomic C call.  Another
        #: router process sharing the shards gives another base.
        self._gtids = itertools.count(gtid_base + 1)
        self.coordinator = TwoPhaseCoordinator(fault_plan=fault_plan, obs=obs)
        #: The highest shard timestamp any of this connection's
        #: transactions has seen: a new one's snapshot is past it.
        self.clock = 0
        self._counter_lock = threading.Lock()
        self._counters = {
            "fastpath_commits": 0,
            "twopc_commits": 0,
            "twopc_aborts": 0,
            **{key: 0 for _, key in _ABORT_KEYS},
            "twopc_aborts_other": 0,
            "coordinator_crashes": 0,
            "in_doubt_commits": 0,
            "in_doubt_aborts": 0,
        }
        #: sql -> ``ClusterSession._route_meta``'s tuple, shared by sessions.
        self._route_meta: "dict[str, tuple]" = {}
        # --- health / self-healing state ------------------------------
        self.unhealthy_after = unhealthy_after
        self._health_lock = threading.Lock()
        self._health = [ShardHealth(shard=i) for i in range(len(addresses))]
        #: Fail-fast only once heartbeats run: without an active health
        #: signal a "down" verdict could never be revised.
        self._health_enforced = False
        self._stop_background = threading.Event()
        self._heartbeat_thread: "Optional[threading.Thread]" = None
        self._resolver_thread: "Optional[threading.Thread]" = None
        self.shards: "list[NetworkConnection]" = []
        try:
            for host, port in addresses:
                self.shards.append(
                    NetworkConnection(
                        host,
                        port,
                        obs=obs,
                        pool_size=pool_size,
                        timeout=timeout,
                        rpc_deadline=rpc_deadline,
                    )
                )
        except BaseException:
            self.close()
            raise

    def _count(self, *names: str, ts: int = 0) -> None:
        """Count ``names`` and raise :attr:`clock` to ``ts``, under the lock
        that keeps two threads from lowering it between compare and store."""
        with self._counter_lock:
            for name in names:
                self._counters[name] += 1
            if ts > self.clock:
                self.clock = ts

    def _counted_two_phase(self, run: Callable, *args: object) -> object:
        """Run one 2PC transaction (``run(*args)``), counting how it ended."""
        try:
            result = run(*args)
        except CoordinatorCrashed:
            # Outcome *unknown*, deliberately not counted as an abort:
            # the decision log plus the in-doubt resolver settle the gtid
            # after the fact.
            self._count("coordinator_crashes")
            raise
        except ApplicationRollback:
            raise  # the program's own decision, not the protocol's
        except BaseException as exc:
            self._count("twopc_aborts", next(
                (key for kind, key in _ABORT_KEYS if isinstance(exc, kind)),
                "twopc_aborts_other",
            ))
            raise
        self._count("twopc_commits")
        return result

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def counters(self) -> "dict[str, int]":
        """Router-side commit-path counters (fast path vs 2PC), flat:
        ``twopc_aborts`` and its split by what ended the attempt
        (``twopc_aborts_lock_timeout`` / ``_serialization`` /
        ``_deadlock`` / ``_unreachable`` / ``_other``)."""
        with self._counter_lock:
            return dict(self._counters)

    # --- Shard health -------------------------------------------------
    def shard_health(self) -> "list[dict]":
        """Per-shard health snapshots (heartbeat-maintained)."""
        with self._health_lock:
            return [health.snapshot() for health in self._health]

    def _unhealthy_count(self) -> int:
        with self._health_lock:
            return sum(1 for health in self._health if not health.healthy)

    def _require_healthy(self, shard: int) -> None:
        """Fail fast on a known-dead shard instead of dialing into a hang.

        Only enforced while heartbeats are running: they are the signal
        that both demotes a shard and promotes it back.
        """
        if not self._health_enforced:
            return
        with self._health_lock:
            health = self._health[shard]
            if health.healthy:
                return
            last_error = health.last_error
        raise ShardUnavailable(
            f"shard {shard} is marked unhealthy ({last_error or 'heartbeats failing'})"
        )

    def _note_shard_ok(self, shard: int) -> None:
        with self._health_lock:
            health = self._health[shard]
            recovered = not health.healthy
            health.healthy = True
            health.consecutive_failures = 0
            health.last_error = ""
        if recovered and self.obs is not None:
            self.obs.cluster_shard_health(self._unhealthy_count())

    def _note_shard_failure(self, shard: int, exc: BaseException) -> None:
        with self._health_lock:
            health = self._health[shard]
            health.consecutive_failures += 1
            health.last_error = str(exc)
            demoted = (
                health.healthy
                and health.consecutive_failures >= self.unhealthy_after
            )
            if demoted:
                health.healthy = False
        if demoted and self.obs is not None:
            self.obs.cluster_shard_health(self._unhealthy_count())

    def _sweep(self, start: Callable, op: str, *args: object) -> "list[Outcome]":
        """One connection-level RPC to every shard, ``start`` a split
        :class:`NetworkConnection` verb: all sent, then all read, from
        this thread."""
        return scatter_gather(
            [partial(start, shard, *args) for shard in self.shards],
            op=op,
            obs=self.obs,
        )

    def heartbeat(self, deadline: Optional[float] = None) -> "list[bool]":
        """One synchronous health probe of every shard (single attempt).

        Every probe is sent before the first reply is read, so the others'
        replies arrive while a slow shard's is awaited: one slow or dead
        shard costs the sweep its own deadline, not one per shard.
        """
        outcomes = self._sweep(NetworkConnection.start_ping, "heartbeat", deadline)
        results = []
        for shard, outcome in enumerate(outcomes):
            ok = bool(outcome.ok and outcome.value)
            if self.obs is not None:
                self.obs.cluster_heartbeat(shard, ok)
            if ok:
                self._note_shard_ok(shard)
            else:
                self._note_shard_failure(
                    shard, outcome.error or ConnectionClosed("heartbeat ping failed")
                )
            results.append(ok)
        return results

    def start_heartbeats(
        self, interval: float = 0.2, deadline: Optional[float] = None
    ) -> None:
        """Run :meth:`heartbeat` on a daemon thread; enables fail-fast."""
        if self._heartbeat_thread is not None:
            return
        self._health_enforced = True

        def loop() -> None:
            while not self._stop_background.wait(interval):
                try:
                    self.heartbeat(deadline)
                except ReproError:  # pragma: no cover - defensive
                    pass

        self._heartbeat_thread = threading.Thread(
            target=loop, name="repro-cluster-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def start_in_doubt_resolver(self, interval: float = 0.2) -> None:
        """Sweep for in-doubt / orphaned prepared gtids on a daemon thread."""
        if self._resolver_thread is not None:
            return

        def loop() -> None:
            while not self._stop_background.wait(interval):
                try:
                    self.resolve_in_doubt()
                except ReproError:  # pragma: no cover - defensive
                    pass

        self._resolver_thread = threading.Thread(
            target=loop, name="repro-cluster-resolver", daemon=True
        )
        self._resolver_thread.start()

    def stop_background(self) -> None:
        """Stop the heartbeat and resolver threads (idempotent); with no
        heartbeats left to revise a verdict, fail-fast stops too."""
        self._health_enforced = False
        self._stop_background.set()
        for thread in (self._heartbeat_thread, self._resolver_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        self._heartbeat_thread = None
        self._resolver_thread = None
        self._stop_background = threading.Event()

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """Install (or clear) the coordinator-side fault plan."""
        self.coordinator.install_faults(plan)

    # --- Connection surface -------------------------------------------
    def session(self) -> ClusterSession:
        return ClusterSession(self)

    def ping(self) -> bool:
        """True iff every shard answers; probes all (no short-circuit).

        Each probe is bounded by the per-shard connection ``timeout`` —
        a down shard yields ``False``, never an indefinite hang.
        """
        outcomes = self._sweep(NetworkConnection.start_ping, "ping")
        results = [bool(o.ok and o.value) for o in outcomes]
        for shard, ok in enumerate(results):
            if not ok:
                self._note_shard_failure(
                    shard, ConnectionClosed("ping failed")
                )
        return all(results)

    def stats(self) -> dict:
        """Merged stats; per-shard fetches are deadline-bounded and
        fail-soft (an unreachable shard contributes an ``unreachable``
        stub plus its health record instead of an exception or a hang).
        """
        merged: dict = {
            "backend": "cluster",
            "shards": self.shard_count,
            **self.counters(),
        }
        outcomes = self._sweep(NetworkConnection.start_stats, "stats")
        shard_stats: "list[dict]" = []
        for shard, outcome in enumerate(outcomes):
            if outcome.ok:
                shard_stats.append(outcome.value)
            elif isinstance(outcome.error, ConnectionClosed):
                self._note_shard_failure(shard, outcome.error)
                shard_stats.append(
                    {
                        "backend": "network",
                        "unreachable": True,
                        "error": str(outcome.error),
                    }
                )
            else:
                raise outcome.error
        merged["shard_stats"] = shard_stats
        merged["shard_health"] = self.shard_health()
        return merged

    def vacuum(self) -> int:
        outcomes = self._sweep(NetworkConnection.start_vacuum, "vacuum")
        error = first_error(outcomes)
        if error is not None:
            raise error
        return sum(outcome.value for outcome in outcomes)

    def flush(self) -> None:
        """Nothing to settle (see :meth:`NetworkConnection.flush`)."""

    def resolve_in_doubt(self) -> "dict[str, str]":
        """Settle every in-doubt or orphaned-prepared gtid the shards report.

        Covers two populations: gtids recovered *in doubt* after a shard
        crash (durable prepare, no decision), and *live* prepared orphans
        whose coordinator died mid-2PC (the branch is PREPARED but no
        decision will ever arrive).  Gtids still in flight on this
        connection's coordinator are skipped — their decision broadcast
        is simply not done yet.  Unreachable shards are skipped too;
        their in-doubt state survives the outage and a later sweep (or
        restart) settles it.
        """
        outcomes: "dict[str, str]" = {}
        #: gtid -> the shard connections reporting it; each gtid is
        #: settled exactly once per sweep, with one delivery per shard
        #: (so the in_doubt_* counters count settled *transactions*).
        pending: "dict[str, list[NetworkConnection]]" = {}
        stat_outcomes = self._sweep(NetworkConnection.start_stats, "resolve-scan")
        # Read *after* the scan: a gtid is in flight from before its
        # first prepare, so one the scan saw prepared and this set no
        # longer holds has had its decision made (or its coordinator
        # die).  Read before, the set would miss a transaction that
        # started in between and the sweep would abort it under way.
        in_flight = self.coordinator.in_flight
        for index, shard in enumerate(self.shards):
            outcome = stat_outcomes[index]
            if not outcome.ok:
                if isinstance(outcome.error, ConnectionClosed):
                    self._note_shard_failure(index, outcome.error)
                    continue
                raise outcome.error
            stats = outcome.value
            gtids = list(stats.get("in_doubt_gtids", ()))
            gtids.extend(
                gtid
                for gtid in stats.get("prepared_gtids", ())
                if gtid not in in_flight and gtid not in gtids
            )
            for gtid in gtids:
                pending.setdefault(gtid, []).append(shard)
        for gtid, shards in pending.items():
            sessions: "list[NetworkSession]" = []
            try:
                for shard in shards:
                    sessions.append(shard.session())
                outcome = self.coordinator.resolve_in_doubt(gtid, sessions)
            except ConnectionClosed:  # shard died mid-resolution
                continue
            finally:
                for session in sessions:
                    session.close()
            outcomes[gtid] = outcome
            self._count(
                "in_doubt_commits"
                if outcome == "commit"
                else "in_doubt_aborts"
            )
            if self.obs is not None:
                self.obs.cluster_in_doubt_resolved(outcome)
        return outcomes

    def close(self) -> None:
        self.stop_background()
        for shard in self.shards:
            shard.close()
