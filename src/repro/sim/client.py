"""Simulated closed-system clients.

Each client is one simulation process implementing the paper's driver
loop: "each thread runs the selected transaction and waits for the reply,
after which it immediately (with no think time) initiates another
transaction".  Statements charge the platform's CPU; commits of writing
transactions wait on the group-commit WAL disk; lock waits suspend in
simulated time.  Each request runs through
:func:`~repro.workload.retry.run_request` on simulated time, its backoff
jitter drawn from the client's own stream; the default policy
(``max_attempts=1``) reproduces the paper's protocol exactly — including
the random streams, since no extra draws or sleeps happen.

A :class:`~repro.faults.FaultPlan` installed on the database can kill the
client (``client-death``) or force lock-wait expiry; WAL stalls are
injected by the :class:`~repro.sim.resources.GroupCommitLog` itself.
"""

from __future__ import annotations

import random
from functools import partial
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
from repro.workload.retry import RetryPolicy, run_request
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
        # Bound once per client; ``_now`` reads the clock with no frame.
        self._bodies = {program: transactions.body(program) for program in mix.weights}
        self._rtt = platform.network_rtt
        self._sfu_flushes = platform.sfu_forces_flush
        self._now = partial(getattr, sim, "now")

    # ------------------------------------------------------------------
    def _statement_hook(self, kind: str, _txn) -> None:
        charge = self._charges.get(kind, self._default_charge)
        if charge > 0:
            self.cpu.use(charge)

    def _commit(self, session: Session) -> None:
        txn = session.txn
        if self._commit_charge > 0:
            self.cpu.use(self._commit_charge)
        # ``PlatformModel.needs_flush(wrote_data=txn.needs_wal_flush, ...)``
        if txn.writes or (self._sfu_flushes and (txn.sfu_rows or txn.cc_writes)):
            # Becoming a writer has a fixed price (undo/redo bookkeeping)
            # and the WAL flush; both happen while row locks are held.
            if self._writer_charge > 0:
                self.cpu.use(self._writer_charge)
            self.wal.commit_flush()
        session.commit()

    def _attempt(self, program: str, args: dict) -> None:
        session = Session(
            self.db,
            waiter=self._waiter,
            statement_hook=self._statement_hook,
        )
        self.sim.sleep(self._rtt)
        try:
            session.begin(program)
            self._bodies[program](session, args)
            self._commit(session)
        except (ApplicationRollback, TransactionAborted):
            session.rollback()
            raise

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Process body: loop until the simulation shuts down."""
        while True:
            self.sim.checkpoint()
            faults = self.db.faults
            if faults is not None and faults.should_fire("client-death"):
                return
            program = self.mix.choose(self.rng)
            run_request(
                program,
                self.generator.args_for(program),
                self._attempt,
                policy=self.retry,
                stats=self.stats,
                obs=self.obs,
                now=self._now,
                sleep=self.sim.sleep,
                rng=self.rng,
            )
