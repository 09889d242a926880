"""Simulated closed-system clients.

Each client is one simulation process implementing the paper's driver
loop: "each thread runs the selected transaction and waits for the reply,
after which it immediately (with no think time) initiates another
transaction".  Statements charge the platform's CPU; commits of writing
transactions wait on the group-commit WAL disk; lock waits suspend in
simulated time; serialization failures and deadlocks count as aborts and
the client moves on to a fresh transaction.

The retry layer rides on top: with a non-default
:class:`~repro.workload.retry.RetryPolicy` the client retries the *same*
request (program + arguments) as a new transaction, backing off in
simulated time, before giving up and drawing a fresh request.  The default
policy (``max_attempts=1``) reproduces the paper's protocol exactly —
including the random streams, since no extra draws or sleeps happen.

A :class:`~repro.faults.FaultPlan` installed on the database can kill the
client (``client-death``) or force lock-wait expiry; WAL stalls are
injected by the :class:`~repro.sim.resources.GroupCommitLog` itself.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine.engine import Database, WaitOn
from repro.engine.session import Session, Waiter
from repro.errors import ApplicationRollback, TransactionAborted
from repro.obs import Observability
from repro.sim.core import SimEvent, Simulator
from repro.sim.platform import PlatformModel
from repro.sim.resources import GroupCommitLog, Resource
from repro.smallbank.transactions import SmallBankTransactions
from repro.workload.mix import ParameterGenerator, TransactionMix
from repro.workload.retry import RetryPolicy
from repro.workload.stats import RunStats


class SimWaiter(Waiter):
    """Suspend the simulated client until any blocker resolves.

    With a ``timeout`` the waiter also schedules an expiry at ``now +
    timeout`` simulated seconds and reports ``False`` when the expiry wins
    the race — the session turns that into a
    :class:`~repro.errors.LockTimeout` abort.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def wait_any(self, wait: WaitOn, timeout: Optional[float] = None) -> bool:
        event = SimEvent(self.sim)
        for blocker in wait.blockers:
            blocker.add_resolution_callback(lambda _txn: event.fire())
        if timeout is None:
            event.wait()
            return True
        expired = [False]

        def expire() -> None:
            if not event.fired:
                expired[0] = True
                event.fire()

        self.sim.schedule(timeout, expire)
        event.wait()
        return not expired[0]


class SimulatedClient:
    """One closed-loop client thread of the paper's test driver."""

    def __init__(
        self,
        sim: Simulator,
        db: Database,
        platform: PlatformModel,
        cpu: Resource,
        wal: GroupCommitLog,
        transactions: SmallBankTransactions,
        mix: TransactionMix,
        generator: ParameterGenerator,
        stats: RunStats,
        *,
        mpl: int,
        rng: random.Random,
        retry: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self.db = db
        self.platform = platform
        self.cpu = cpu
        self.wal = wal
        self.transactions = transactions
        self.mix = mix
        self.generator = generator
        self.stats = stats
        self.mpl = mpl
        self.rng = rng
        self.retry = retry or RetryPolicy.paper_default()
        self.obs = obs
        self._waiter = SimWaiter(sim)
        # CPU charges, priced once: the platform's cost times the
        # concurrency multiplier, a constant for the client's lifetime.
        multiplier = platform.cpu_multiplier(mpl)
        self._charges = {k: c * multiplier for k, c in platform.statement_costs.items()}
        self._default_charge = platform.default_statement_cost * multiplier
        self._commit_charge = platform.commit_cpu * multiplier
        self._writer_charge = platform.write_txn_overhead * multiplier

    # ------------------------------------------------------------------
    def _statement_hook(self, kind: str, _txn) -> None:
        charge = self._charges.get(kind, self._default_charge)
        if charge > 0:
            self.cpu.use(charge)

    def _commit(self, session: Session) -> None:
        txn = session.transaction
        if self._commit_charge > 0:
            self.cpu.use(self._commit_charge)
        flush = self.platform.needs_flush(
            wrote_data=txn.needs_wal_flush,
            used_sfu=bool(txn.sfu_rows or txn.cc_writes),
        )
        if flush:
            # Becoming a writer has a fixed price (undo/redo bookkeeping)
            # and the WAL flush; both happen while row locks are held.
            if self._writer_charge > 0:
                self.cpu.use(self._writer_charge)
            self.wal.commit_flush()
        session.commit()

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Process body: loop until the simulation shuts down."""
        policy = self.retry
        obs = self.obs
        while True:
            self.sim.checkpoint()
            faults = self.db.faults
            if faults is not None and faults.should_fire("client-death"):
                return
            program = self.mix.choose(self.rng)
            args = self.generator.args_for(program)
            started = self.sim.now
            attempts = 0
            while True:
                attempts += 1
                session = Session(
                    self.db,
                    waiter=self._waiter,
                    statement_hook=self._statement_hook,
                )
                self.sim.sleep(self.platform.network_rtt)
                try:
                    session.begin(program)
                    self.transactions.body(program)(session, args)
                    self._commit(session)
                    response = self.sim.now - started
                    self.stats.record_commit(
                        program, response, self.sim.now, attempts
                    )
                    if obs is not None:
                        obs.driver_commit(program, response, attempts)
                    break
                except ApplicationRollback:
                    session.rollback()
                    self.stats.record_rollback(program, self.sim.now)
                    if obs is not None:
                        obs.driver_rollback(program)
                    break
                except TransactionAborted as exc:
                    session.rollback()
                    self.stats.record_abort(program, exc.reason, self.sim.now)
                    if obs is not None:
                        obs.driver_abort(program, exc.reason)
                    if not policy.should_retry(exc, attempts):
                        self.stats.record_giveup(program, self.sim.now, attempts)
                        if obs is not None:
                            obs.driver_giveup(program)
                        break
                    # Jitter draws share the client's stream; they only
                    # happen under a non-default policy, where exact figure
                    # reproduction is not expected (still deterministic).
                    delay = policy.backoff(attempts, self.rng)
                    if delay > 0:
                        self.sim.sleep(delay)
                    # Recorded after the backoff sleep: a retry only counts
                    # once the extra attempt actually starts (a simulation
                    # shutdown mid-backoff must not inflate total_retries).
                    self.stats.record_retry(program, self.sim.now)
                    if obs is not None:
                        obs.driver_retry(program)
