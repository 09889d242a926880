"""Serializability verdicts and anomaly classification.

:class:`SerializabilityChecker` is the user-facing facade: attach it to a
database, run any workload, then ask for a :class:`SerializabilityReport`.
Cycles found in the MVSG are classified into the named anomalies the
SI literature uses:

* **write skew** — a two-transaction cycle of two rw anti-dependencies
  (Berenson et al. 1995);
* **read-only transaction anomaly** — a cycle in which some *read-only*
  transaction participates (Fekete, O'Neil & O'Neil, SIGMOD Record 2004 —
  reference [19] of the paper, the basis of SmallBank);
* **dangerous structure** — any cycle with two *consecutive* rw edges
  (the runtime image of the static theory's pivot);
* anything else is reported as a generic serialization cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.mvsg import Cycle, MultiVersionSerializationGraph
from repro.analysis.recorder import (
    CommittedTransaction,
    ExecutionRecorder,
)
from repro.engine.engine import Database


def classify_cycle(
    cycle: Cycle, transactions: dict[int, CommittedTransaction]
) -> tuple[str, ...]:
    """All anomaly labels that apply to a cycle."""
    labels: list[str] = []
    kinds = cycle.kinds
    rw_like = tuple(kind in ("rw", "predicate-rw") for kind in kinds)
    if len(cycle.edges) == 2 and all(rw_like):
        labels.append("write-skew")
    # Two consecutive rw edges (cyclically adjacent).
    count = len(rw_like)
    if any(rw_like[i] and rw_like[(i + 1) % count] for i in range(count)):
        labels.append("dangerous-structure")
    participants = {edge.source for edge in cycle.edges}
    if any(
        txid in transactions and transactions[txid].is_read_only
        for txid in participants
    ):
        labels.append("read-only-transaction-anomaly")
    if not labels:
        labels.append("serialization-cycle")
    return tuple(labels)


@dataclass
class SerializabilityReport:
    """Outcome of checking one committed history."""

    serializable: bool
    committed_count: int
    aborted_count: int
    cycle: Optional[Cycle] = None
    anomalies: tuple[str, ...] = ()
    serial_order: Optional[tuple[int, ...]] = None

    def describe(self) -> str:
        if self.serializable:
            return (
                f"serializable: {self.committed_count} committed "
                f"({self.aborted_count} aborted); equivalent serial order "
                f"exists"
            )
        return (
            f"NOT serializable: cycle [{self.cycle}] "
            f"anomalies={', '.join(self.anomalies)}"
        )


class SerializabilityChecker:
    """Attach to a database, run a workload, then call :meth:`report`."""

    def __init__(self, db: Database, *, phantom_edges: bool = False) -> None:
        self.recorder = ExecutionRecorder().attach(db)
        self.phantom_edges = phantom_edges

    def graph(self) -> MultiVersionSerializationGraph:
        return MultiVersionSerializationGraph(
            self.recorder.committed, phantom_edges=self.phantom_edges
        )

    def report(self) -> SerializabilityReport:
        return replace(
            check_history(
                self.recorder.committed, phantom_edges=self.phantom_edges
            ),
            aborted_count=self.recorder.aborted_count,
        )


def check_history(
    transactions: "list[CommittedTransaction] | tuple[CommittedTransaction, ...]",
    *,
    phantom_edges: bool = False,
) -> SerializabilityReport:
    """Check an already-collected history without a live database."""
    graph = MultiVersionSerializationGraph(
        transactions, phantom_edges=phantom_edges
    )
    cycle = graph.find_cycle()
    if cycle is None:
        return SerializabilityReport(
            serializable=True,
            committed_count=len(graph.transactions),
            aborted_count=0,
            serial_order=graph.topological_commit_order(),
        )
    return SerializabilityReport(
        serializable=False,
        committed_count=len(graph.transactions),
        aborted_count=0,
        cycle=cycle,
        anomalies=classify_cycle(cycle, graph.transactions),
    )
