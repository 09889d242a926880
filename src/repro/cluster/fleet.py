"""The cluster harness: N shards, in threads or in OS processes.

:class:`Cluster` stands up a full sharded deployment — partitioned
populations, per-shard recorders, real TCP servers — and drives it for
tests, demos, the smoke and chaos certifiers and the benchmarks::

    with Cluster(shard_count=2, customers=40) as cluster:
        conn = cluster.connect()
        ...
        report = merge_shard_histories(cluster.histories())

It is written once over "a list of shards with ``address`` / ``crash`` /
``recover`` / ``history`` / ``install_faults`` / ``shutdown``"; which
class those shards are is the whole difference between the two models:

:class:`Cluster` — :class:`~repro.net.shard.ThreadShard`
    Every shard server runs inside this interpreter.  Cheapest to start,
    but at MPL ≥ shard count the shards contend for a single GIL, so
    adding shards cannot add throughput.

:class:`ShardFleet` — :class:`ShardProcess`
    Each shard is a ``python -m repro.net --shard-index i --shard-count
    n`` child: a separate interpreter per shard, real parallelism on
    multi-core hosts.  The child hosts the same ``ThreadShard`` and the
    parent calls its methods over the child's line-oriented stdin
    channel (crash/recovery happens *inside* the surviving child: the
    WAL is in-memory, so killing the process would lose the durable
    state the crash model is supposed to preserve).  After ``shutdown``,
    ``alive_count == kill_count == 0`` proves no child was orphaned or
    had to be force-killed.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.cluster.router import ClusterConnection
from repro.errors import ReproError, TransactionStateError
from repro.net.client import NetworkConnection
from repro.net.shard import ThreadShard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import CommittedTransaction
    from repro.faults import FaultPlan
    from repro.obs import Observability

#: How long a child gets to bind its socket / finish recovery before the
#: parent declares the spawn failed.  Generous beats flaky: a child of
#: 3 600 customers is listening after ~0.2-0.3 s on a 2-vCPU host (one
#: pinned CPU), split as ~55-70 ms interpreter start, ~130-160 ms
#: compiling and importing its 32 ``repro`` modules and ~35 ms (0-of-2
#: shard) to ~80 ms (1-of-1) loading its rows.
STARTUP_DEADLINE = 60.0

#: How long graceful shutdown (stdin EOF → child drains and exits) may
#: take before the parent escalates to SIGTERM and then SIGKILL.
DEFAULT_SHUTDOWN_TIMEOUT = 20.0


def _repro_pythonpath() -> str:
    """PYTHONPATH entry that makes ``-m repro.net`` importable in a child."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else src + os.pathsep + existing


class ShardProcessError(ReproError):
    """A shard child process misbehaved (died, hung, or spoke garbage)."""


class ShardProcess:
    """One shard served by its own ``python -m repro.net`` child process.

    The constructor only spawns; :attr:`address` (or :meth:`wait_ready`)
    blocks until the child is listening.  All control traffic runs over
    the child's stdin/stdout pipes; a reader thread feeds stdout lines
    into a queue so every wait is deadline-bounded without racing
    buffered reads against ``select``.  ``crash`` / ``recover`` /
    ``history`` / ``install_faults`` / ``shutdown`` are the child's
    :class:`~repro.net.shard.ThreadShard` methods of the same names.
    """

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        *,
        customers: int = 40,
        isolation: str = "si",
        seed: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        record: bool = True,
        autovacuum_interval: Optional[float] = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.shard_index = shard_index
        self.host = host
        self.port: Optional[int] = None
        self.crashed = False
        self.kill_count = 0
        #: Final server counters, set by a graceful :meth:`shutdown`.
        self.stats: Optional[dict] = None
        self._lock = threading.Lock()
        argv = [
            sys.executable,
            "-u",
            "-m",
            "repro.net",
            "--host",
            host,
            "--port",
            str(port),
            "--customers",
            str(customers),
            "--isolation",
            isolation,
            "--shard-index",
            str(shard_index),
            "--shard-count",
            str(shard_count),
        ]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if record:
            argv.append("--record")
        if autovacuum_interval is not None:
            argv += ["--autovacuum", str(autovacuum_interval)]
        if fault_plan is not None:
            argv += ["--faults", fault_plan.to_json()]
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # child tracebacks stay visible on our stderr
            env=env,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._pump_stdout,
            name=f"repro-fleet-shard{shard_index}-stdout",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------
    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)  # EOF sentinel

    def _read_line(self, deadline: float, *, expecting: str) -> str:
        remaining = deadline - time.monotonic()
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                raise ShardProcessError(
                    f"shard {self.shard_index} (pid {self.proc.pid}): timed "
                    f"out waiting for {expecting}"
                ) from None
            if line is None:
                raise ShardProcessError(
                    f"shard {self.shard_index} exited (code "
                    f"{self.proc.poll()}) while the parent waited for "
                    f"{expecting}"
                )
            return line

    def _expect(self, prefix: str, deadline: float) -> str:
        """Next stdout line starting with ``prefix``; returns the rest."""
        line = self._read_line(deadline, expecting=prefix)
        if not line.startswith(prefix):
            raise ShardProcessError(
                f"shard {self.shard_index}: expected {prefix!r}, got {line!r}"
            )
        return line[len(prefix) :].strip()

    def _send(self, command: str) -> None:
        if self.proc.poll() is not None:
            raise ShardProcessError(
                f"shard {self.shard_index} is dead (exit {self.proc.poll()})"
            )
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise ShardProcessError(
                f"shard {self.shard_index}: control channel broken: {exc}"
            ) from exc

    def _deadline(self, timeout: float = STARTUP_DEADLINE) -> float:
        return time.monotonic() + timeout

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    @property
    def address(self) -> "tuple[str, int]":
        return self.wait_ready()

    def wait_ready(self) -> "tuple[str, int]":
        """Block until the child prints ``LISTENING <port>``."""
        with self._lock:
            if self.port is None:
                rest = self._expect("LISTENING ", self._deadline())
                self.port = int(rest)
        return (self.host, self.port)

    def ping(self, timeout: float = 5.0) -> bool:
        """Control-channel liveness (distinct from the data-plane port)."""
        try:
            with self._lock:
                self._send("PING")
                self._expect("PONG", self._deadline(timeout))
            return True
        except ShardProcessError:
            return False

    def crash(self) -> None:
        """Power-fail the shard's engine inside the (surviving) child."""
        with self._lock:
            self._send("CRASH")
            self._expect("CRASHED", self._deadline())
            self.crashed = True

    def recover(self) -> None:
        """Recover the engine and serve again on the same port."""
        with self._lock:
            self._send("RECOVER")
            rest = self._expect("LISTENING ", self._deadline())
            restarted_port = int(rest)
            if self.port is not None and restarted_port != self.port:
                raise ShardProcessError(
                    f"shard {self.shard_index} recovered on port "
                    f"{restarted_port}, expected {self.port}"
                )
            self.port = restarted_port
            self.crashed = False

    def dump_history(self, path: str) -> int:
        """Write the child's committed history to ``path`` as JSONL."""
        with self._lock:
            self._send(f"DUMP {path}")
            return int(self._expect("DUMPED ", self._deadline()))

    def history(self) -> "tuple[CommittedTransaction, ...]":
        """The child's committed history, shipped through a JSONL dump."""
        from repro.analysis.recorder import load_history_jsonl

        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
            path = os.path.join(tmp, f"shard{self.shard_index}.jsonl")
            self.dump_history(path)
            return load_history_jsonl(path)

    def install_faults(self, plan: "FaultPlan | None") -> None:
        with self._lock:
            self._send(
                "FAULTS off" if plan is None else "FAULTS " + plan.to_json()
            )
            self._expect("FAULTS ok", self._deadline())

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = DEFAULT_SHUTDOWN_TIMEOUT) -> None:
        """Graceful stop: stdin EOF, collect STATS, reap; escalate only
        if the child hangs (counted in :attr:`kill_count`)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:  # pragma: no cover - already broken
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill_count += 1
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    self.proc.kill()
                    self.proc.wait()
        # Drain the reader for the final STATS line (present only after
        # a graceful exit).
        self._reader.join(timeout=5.0)
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is not None and line.startswith("STATS "):
                import json

                self.stats = json.loads(line[len("STATS ") :])


class Cluster:
    """N shards over one hash-partitioned SmallBank population, each
    served from a thread of this process (see the module docstring;
    :class:`ShardFleet` is the same harness over child processes).
    """

    shard_class: type = ThreadShard

    def __init__(
        self,
        shard_count: int = 2,
        *,
        customers: int = 40,
        isolation: str = "si",
        seed: Optional[int] = None,
        record: bool = True,
        autovacuum_interval: Optional[float] = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.shard_count = shard_count
        self.obs = obs
        self.fault_plan: "FaultPlan | None" = None
        self.restart_count = 0
        self.shards: list = []
        try:
            # Spawn every shard first and probe readiness second, so
            # process shards pay interpreter start + population
            # concurrently rather than serially.
            for shard in range(shard_count):
                self.shards.append(
                    self.shard_class(
                        shard,
                        shard_count,
                        customers=customers,
                        isolation=isolation,
                        seed=seed,
                        record=record,
                        autovacuum_interval=autovacuum_interval,
                    )
                )
                if obs is not None:
                    obs.fleet_spawn(shard)
            #: Fixed for the cluster's life: recovery rebinds the port.
            self.addresses: "list[tuple[str, int]]" = [
                shard.address for shard in self.shards
            ]
        except BaseException:
            self.shutdown()
            raise

    @property
    def url(self) -> str:
        return "cluster://" + ",".join(
            f"{host}:{port}" for host, port in self.addresses
        )

    def connect(self, **kwargs) -> ClusterConnection:
        return ClusterConnection(self.addresses, **kwargs)

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """Install (or clear) the fault plan on every shard server.

        Each shard remembers it across crash and recovery.  Thread
        shards consult the one shared plan from their server threads in
        nondeterministic order; process shards each rebuild their own
        copy from the same seed — either way the per-shard draw
        sequences are independent.  Clear with ``None`` before measuring.
        """
        self.fault_plan = plan
        for shard in self.shards:
            shard.install_faults(plan)

    def crash_shard(self, shard: int) -> None:
        """Power-fail one shard: crash its engine, stop its server, and
        keep its recorded history up to the durable horizon
        (:meth:`ThreadShard.crash <repro.net.shard.ThreadShard.crash>`)."""
        self.shards[shard].crash()

    def restart_shard(self, shard: int) -> None:
        """Recover a crashed shard and serve it again *on the same
        port*, so existing client connections reconnect transparently."""
        self.shards[shard].recover()
        self.restart_count += 1
        if self.obs is not None:
            self.obs.fleet_restart(shard)

    def recover_crashed(self) -> int:
        """Restart every crashed shard; returns how many there were."""
        crashed = [i for i, shard in enumerate(self.shards) if shard.crashed]
        for shard in crashed:
            self.restart_shard(shard)
        return len(crashed)

    def histories(self) -> "dict[int, tuple[CommittedTransaction, ...]]":
        """Per-shard committed histories, ready for the global merge
        (:func:`repro.analysis.merge_shard_histories`)."""
        return {i: shard.history() for i, shard in enumerate(self.shards)}

    def total_money(self) -> float:
        """Cluster-wide balance sum (matches the single-node population),
        read over the wire from every shard."""
        total = 0.0
        for host, port in self.addresses:
            with NetworkConnection(host, port) as connection:
                with connection.transaction("audit") as txn:
                    for table in ("Saving", "Checking"):
                        for _key, row in txn.scan(table, description="audit"):
                            total += row["Balance"]
        return round(total, 2)

    def pending_2pc_gtids(self) -> "set[str]":
        """Every gtid still prepared or in doubt on any shard, from the
        servers' wire-level stats — so every shard must be serving."""
        pending: "set[str]" = set()
        for index, shard in enumerate(self.shards):
            if shard.crashed:
                raise TransactionStateError(
                    f"shard {index} is crashed; recover_crashed() first"
                )
            with NetworkConnection(*shard.address) as connection:
                stats = connection.stats()
            pending.update(stats["in_doubt_gtids"])
            pending.update(stats["prepared_gtids"])
        return pending

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.shutdown()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


class ShardFleet(Cluster):
    """The same harness with every shard in its own OS process."""

    shard_class = ShardProcess

    @property
    def alive_count(self) -> int:
        """Children still running; non-zero after :meth:`shutdown` means
        an orphaned process."""
        return sum(1 for shard in self.shards if shard.alive)

    @property
    def kill_count(self) -> int:
        """Children that needed SIGTERM/SIGKILL instead of a clean EOF
        exit — any non-zero value means an orphan-process bug."""
        return sum(shard.kill_count for shard in self.shards)
