"""The threaded (real-concurrency, wall-clock) closed-system driver.

The performance figures come from the simulator (:mod:`repro.sim`), where
time is modelled; this driver runs the same mix on real OS threads and is
used for correctness under genuine concurrency (combine with
:class:`~repro.analysis.SerializabilityChecker`) and for quick smoke
benchmarks of the engine itself.

Robustness contract:

* every transaction outcome releases its session — a failed attempt
  calls ``session.rollback()`` and ``close()`` so no locks or uncommitted
  versions leak into later requests, and a clean-up that fails on a
  broken wire does not replace the error the attempt failed with;
* a worker thread that dies on an unexpected exception does not silently
  deflate the run's TPS: per-thread exceptions are captured and re-raised
  (as :class:`ThreadedDriverError`) after all threads are joined, and
  threads still alive after the join timeout are reported the same way;
* each request runs through :func:`~repro.workload.retry.run_request`
  under the shared :class:`~repro.workload.retry.RetryPolicy` (default:
  the paper's retry-as-new-transaction protocol), and a
  :class:`~repro.faults.FaultPlan` installed on the database can kill
  clients mid-run (``client-death``).

Handing the driver an :class:`~repro.obs.Observability` installs it on
the database, and the request loop fills its program-labelled driver
metrics (response-time histograms, commit/abort/retry/give-up counters).

Backends: the driver runs against any :class:`repro.api.Connection` —
pass ``connection=`` (e.g. ``repro.connect("tcp://host:port")``) to push
the same closed-system load over the network service layer.  Passing a
bare :class:`Database` keeps the historical behaviour (an in-process
:class:`~repro.api.LocalConnection` is wrapped around it).
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.api import Connection, LocalConnection
from repro.engine.engine import Database
from repro.errors import ReproError
from repro.obs import Observability
from repro.smallbank.transactions import SmallBankTransactions
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix
from repro.workload.retry import RetryPolicy, run_request
from repro.workload.stats import RunStats


class ThreadedDriverError(ReproError):
    """One or more worker threads failed or never finished.

    ``failures`` maps client id to the exception that killed the worker;
    ``stuck`` lists client ids whose threads were still alive after the
    join timeout; ``stats`` is the run's :class:`RunStats` as the other
    clients left it.
    """

    def __init__(
        self,
        failures: "dict[int, BaseException]",
        stuck: "tuple[int, ...]",
        stats: RunStats,
    ) -> None:
        parts = []
        if failures:
            detail = "; ".join(
                f"client {cid}: {type(exc).__name__}: {exc}"
                for cid, exc in sorted(failures.items())
            )
            parts.append(f"{len(failures)} worker(s) died ({detail})")
        if stuck:
            parts.append(
                f"{len(stuck)} worker(s) still alive after join timeout: "
                f"{sorted(stuck)}"
            )
        super().__init__("; ".join(parts) or "threaded driver failure")
        self.failures = dict(failures)
        self.stuck = tuple(stuck)
        self.stats = stats


@dataclass(frozen=True)
class ThreadedDriverConfig:
    mpl: int = 4
    customers: int = 100
    hotspot: int = 10
    hotspot_probability: float = 0.9
    mix: str = "uniform"
    duration: float = 1.0
    ramp_up: float = 0.0
    seed: int = 1
    #: Extra wall-clock grace given to the join beyond ramp-up + duration.
    join_grace: float = 60.0
    #: In-place retry protocol; ``None`` means the paper's default
    #: (surface every abort, move on to a fresh transaction).
    retry: Optional[RetryPolicy] = None
    #: Override for the stats measurement window ``(start, end)`` on the
    #: run clock; ``None`` means the standard ``[ramp_up, ramp_up +
    #: duration)``; ``(0.0, inf)`` keeps every event, for exact accounting.
    stats_window: Optional[tuple[float, float]] = None


class ThreadedDriver:
    """Closed system of ``mpl`` real threads, no think time."""

    def __init__(
        self,
        db: Optional[Database],
        transactions: SmallBankTransactions,
        config: ThreadedDriverConfig,
        obs: Optional[Observability] = None,
        *,
        connection: Optional[Connection] = None,
    ) -> None:
        if connection is None:
            if db is None:
                raise ValueError("pass a Database or a connection")
            connection = LocalConnection(db)
        elif db is None:
            # A LocalConnection still exposes its engine (fault plans,
            # version-chain sampling); a network backend has no local
            # database and those hooks are skipped.
            db = getattr(connection, "db", None)
        self.db = db
        self.connection = connection
        self.transactions = transactions
        self.config = config
        self.obs = obs
        if obs is not None and db is not None:
            db.install_observability(obs)

    def _attempt(self, program: str, args: dict) -> None:
        session = self.connection.session()
        try:
            self.transactions.run(session, program, args)
        except BaseException:
            # Clean-up on a broken wire can fail too; the error that ended
            # the attempt is the one the request loop counts.
            for release in (session.rollback, session.close):
                with contextlib.suppress(ReproError):
                    release()
            raise
        session.close()

    def run(self) -> RunStats:
        config = self.config
        policy = config.retry or RetryPolicy.paper_default()
        window = config.stats_window or (
            config.ramp_up,
            config.ramp_up + config.duration,
        )
        stats = RunStats(window_start=window[0], window_end=window[1])
        mix = get_mix(config.mix)
        hotspot = HotspotConfig(
            customers=config.customers,
            hotspot=config.hotspot,
            hotspot_probability=config.hotspot_probability,
        )
        epoch = time.monotonic()
        deadline = epoch + config.ramp_up + config.duration

        def clock() -> float:
            return time.monotonic() - epoch

        def expired() -> bool:
            return time.monotonic() >= deadline

        def worker(client_id: int) -> None:
            rng = random.Random(f"{config.seed}/{client_id}")
            backoff_rng = random.Random(f"{config.seed}/backoff/{client_id}")
            generator = ParameterGenerator(hotspot, rng)
            faults = self.db.faults if self.db is not None else None
            while not expired():
                if faults is not None and faults.should_fire("client-death"):
                    return
                program = mix.choose(rng)
                run_request(
                    program,
                    generator.args_for(program),
                    self._attempt,
                    policy=policy,
                    stats=stats,
                    obs=self.obs,
                    now=clock,
                    sleep=time.sleep,
                    rng=backoff_rng,
                    expired=expired,
                )

        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()

        def guarded(client_id: int) -> None:
            try:
                worker(client_id)
            except BaseException as exc:  # noqa: BLE001 - reported after join
                with failures_lock:
                    failures[client_id] = exc

        threads = {
            client_id: threading.Thread(
                target=guarded, args=(client_id,), daemon=True
            )
            for client_id in range(config.mpl)
        }
        for thread in threads.values():
            thread.start()
        join_deadline = deadline + config.join_grace
        for thread in threads.values():
            thread.join(timeout=max(0.0, join_deadline - time.monotonic()))
        stuck = tuple(
            client_id
            for client_id, thread in threads.items()
            if thread.is_alive()
        )
        if self.obs is not None and self.db is not None:
            self.db.observe_version_stats()
        if failures or stuck:
            raise ThreadedDriverError(failures, stuck, stats)
        return stats
