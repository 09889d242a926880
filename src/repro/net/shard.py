"""One served SmallBank shard and its crash / recover lifecycle.

:class:`ThreadShard` owns everything one shard is made of — the
database, its execution recorder, the :class:`DatabaseServer` thread,
the history salvaged at each crash and the remembered fault plan — and
is the *only* implementation of the power-fail → salvage → recover-on-
the-same-port policy (DESIGN.md §13).  It is used twice: directly, as a
shard of an in-process :class:`repro.cluster.Cluster`, and as the object
``python -m repro.net`` drives from its stdin control channel on behalf
of a :class:`repro.cluster.ShardProcess` in the parent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.api import ISOLATION_CONFIGS
from repro.errors import TransactionStateError
from repro.net.server import DatabaseServer
from repro.smallbank.schema import PopulationConfig, build_shard_database
import repro.smallbank.transactions  # noqa: F401 - registers the CALL factory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.recorder import CommittedTransaction
    from repro.faults import FaultPlan

#: Salvaged txids are shifted by ``epoch * stride`` at each crash, into a
#: range disjoint from the restarted engine's txid counter (recovery
#: restarts it at 0, and the MVSG keys nodes by txid).
SALVAGE_EPOCH_STRIDE = 10_000_000


def build_served_database(
    *,
    customers: int,
    isolation: str = "si",
    seed: "int | None" = None,
    shard_index: int = 0,
    shard_count: int = 1,
):
    """The database one shard serves.

    With ``shard_count > 1`` this is one shard's slice of the hash
    partitioned population, drawn in exactly the single-node RNG order
    (:func:`repro.smallbank.schema.build_shard_database`); a single
    shard is the plain unsharded population.
    """
    population = (
        PopulationConfig(customers=customers)
        if seed is None
        else PopulationConfig(customers=customers, seed=seed)
    )
    return build_shard_database(
        ISOLATION_CONFIGS[isolation](),
        population,
        shard_index=shard_index,
        shard_count=shard_count,
    )


class ThreadShard:
    """A shard served from a thread of this process.

    ``server_options`` go to every :class:`DatabaseServer` incarnation
    (``autovacuum_interval``, ``max_connections``, ``backpressure``,
    ``obs``).  The port is chosen once: every recovery binds it again,
    so clients reconnect transparently.
    """

    def __init__(
        self,
        shard_index: int = 0,
        shard_count: int = 1,
        *,
        customers: int = 40,
        isolation: str = "si",
        seed: Optional[int] = None,
        record: bool = True,
        fault_plan: "FaultPlan | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_options,
    ) -> None:
        self.db = build_served_database(
            customers=customers,
            isolation=isolation,
            seed=seed,
            shard_index=shard_index,
            shard_count=shard_count,
        )
        self.recorder = None
        if record:  # a plain server never pays for importing repro.analysis
            from repro.analysis.recorder import record_database

            self.recorder = record_database(self.db)
        self.fault_plan = fault_plan
        self.host = host
        self.port = port
        self.crashed = False
        #: Final server counters, set by :meth:`shutdown`.
        self.stats: Optional[dict] = None
        self._server_options = server_options
        #: Committed history salvaged at each crash, oldest first.
        self._history_prefix: "list[CommittedTransaction]" = []
        self._salvage_epoch = 0
        self._serve()

    def _serve(self) -> None:
        self.server = DatabaseServer(
            self.db,
            host=self.host,
            port=self.port,
            fault_plan=self.fault_plan,
            **self._server_options,
        ).start_in_thread()
        self.port = self.server.port

    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    def crash(self) -> None:
        """Power-fail the engine and stop serving.

        The recorded history is first cut back to the crashed WAL's
        durable horizon and its txids shifted into this crash's epoch
        range — :func:`~repro.analysis.recorder.salvage_durable_history`
        says why both are needed.
        """
        if self.crashed:
            raise TransactionStateError("shard has already crashed")
        self.db.crash()
        self.server.shutdown()
        if self.recorder is not None:
            from repro.analysis.recorder import salvage_durable_history

            self._salvage_epoch += 1
            self._history_prefix.extend(
                salvage_durable_history(
                    self.db,
                    self.recorder,
                    txid_offset=self._salvage_epoch * SALVAGE_EPOCH_STRIDE,
                )
            )
            self.recorder.clear()
        self.crashed = True

    def recover(self) -> None:
        """Rebuild the engine from its durable state (checkpoint image +
        flushed WAL prefix) and serve it again *on the same port*.

        ``Database.recover`` carries the observers (the recorder) over
        to the rebuilt engine; the remembered fault plan is installed on
        the replacement server.
        """
        if not self.crashed:
            raise TransactionStateError(
                "shard has not crashed; nothing to recover"
            )
        self.db = self.db.recover()
        self._serve()
        self.crashed = False

    def history(self) -> "tuple[CommittedTransaction, ...]":
        """Committed history: the prefixes salvaged at each crash ahead
        of what the recorder has observed since."""
        committed = tuple(self._history_prefix)
        if self.recorder is not None:
            committed += self.recorder.committed
        return committed

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """Install (or clear) the server's fault plan; remembered, so a
        plan that arrives while crashed is in force after recovery."""
        self.fault_plan = plan
        if not self.crashed:
            self.server.install_faults(plan)

    def shutdown(self) -> None:
        self.server.shutdown()
        self.stats = self.server.stats()
