"""The certifier: serializable and SI verdicts over committed histories.

:func:`merge_shard_histories` certifies a cluster's per-shard histories;
a single node's history is its one-shard case (:func:`check_history`).
A distributed transaction runs one *branch* per shard it touches, and
the router tags every branch label with the global id
(``"WriteCheck#g42"``), so branches are stitched together without any
cross-shard clock.  Every item lives on exactly one shard, so every MVSG
dependency is witnessed by that item's shard: the global graph is the
edge-union of the per-shard graphs, txids mapped to global ids (branches
are not fused into one footprint: each shard has its own commit-timestamp
domain, and mixing them would corrupt the per-item version order).  A cycle
no single shard can see is the cross-shard anomaly of the robustness
literature (Beillahi et al.; Nagar & Jagannathan).

One report carries two verdicts: **serializable** (the MVSG is acyclic,
Adya) and **snapshot-isolated** (every cycle has two adjacent rw edges,
Cerone & Gotsman — the dynamic twin of the paper's dangerous
structure).  Write skew and the read-only anomaly are SI; a lost update
and a fractured read are not.  Cycles are classified into the named
anomalies of the SI literature: **write skew** (two rw edges, Berenson
et al. 1995), the **read-only transaction anomaly** (a read-only
participant, Fekete, O'Neil & O'Neil 2004 — the paper's reference [19]),
a **dangerous structure** (two consecutive rw edges, the runtime image
of the static pivot), else a generic serialization cycle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.analysis.mvsg import (
    Cycle,
    DependencyEdge,
    MultiVersionSerializationGraph,
    find_cycle_in,
)
from repro.analysis.recorder import CommittedTransaction, ExecutionRecorder
from repro.engine.engine import Database
from repro.errors import AnalysisError

#: Label suffix carrying the global transaction id: ``"<label>#g<N>"``.
GTID_TAG = "#g"


def split_label(label: str) -> "tuple[str, Optional[str]]":
    """``("WriteCheck", "g42")`` from ``"WriteCheck#g42"``.

    Returns ``(label, None)`` for an untagged label (a transaction that
    never went through the cluster router).
    """
    base, sep, tag = label.rpartition(GTID_TAG)
    if sep and tag.isdigit():
        return base, f"g{tag}"
    return label, None


def global_id(shard: int, txn: CommittedTransaction) -> str:
    """The merged-graph node id for one branch.

    Router-tagged branches of the same global transaction share one id;
    untagged transactions get a synthetic per-shard id so they still
    appear (as single-branch nodes) in the global graph.
    """
    _, gid = split_label(txn.label)
    if gid is not None:
        return gid
    return f"s{shard}-t{txn.txid}"


@dataclass(frozen=True)
class GlobalTransaction:
    """One global transaction: its branches across the shards it touched."""

    gid: str
    label: str
    branches: "tuple[tuple[int, CommittedTransaction], ...]"

    @property
    def shards(self) -> tuple[int, ...]:
        return tuple(shard for shard, _ in self.branches)

    @property
    def active_branches(self) -> "tuple[tuple[int, CommittedTransaction], ...]":
        """Branches that actually touched data.

        The router's *consistent* snapshot mode broadcasts BEGIN to
        every shard, so a single-shard transaction still leaves empty
        committed branches elsewhere; those carry no dependencies and
        do not make the transaction distributed.
        """
        return tuple(
            (shard, branch)
            for shard, branch in self.branches
            if branch.reads or branch.writes or branch.predicate_reads
        )

    @property
    def is_read_only(self) -> bool:
        """Read-only iff *every* branch is (``classify_cycle`` duck type)."""
        return all(branch.is_read_only for _, branch in self.branches)

    @property
    def is_distributed(self) -> bool:
        return len(self.active_branches) > 1


def classify_cycle(cycle: Cycle, transactions: Mapping) -> tuple[str, ...]:
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
    """Outcome of certifying one committed history, single-node or merged."""

    serializable: bool
    transactions: "dict[str, GlobalTransaction]"
    edges: tuple[DependencyEdge, ...]
    cycle: Optional[Cycle] = None
    anomalies: tuple[str, ...] = ()
    #: Per-shard *local* cycle witnesses (usually all ``None``: each
    #: shard's own history is serializable even when the merge is not —
    #: that gap is the cross-shard anomaly).
    shard_cycles: "dict[int, Optional[Cycle]]" = field(default_factory=dict)
    #: Global ids in an equivalent serial order (``None`` when there is none).
    serial_order: Optional[tuple[str, ...]] = None
    aborted_count: int = 0
    #: A cycle of ``(wr ∪ ww) ; rw?`` steps; ``None`` when the history is SI.
    si_cycle: Optional[Cycle] = None

    @property
    def snapshot_isolated(self) -> bool:
        return self.si_cycle is None

    @property
    def committed_count(self) -> int:
        return len(self.transactions)

    @property
    def cross_shard_only(self) -> bool:
        """True when the anomaly is invisible to every individual shard."""
        return not self.serializable and not any(self.shard_cycles.values())

    def describe(self) -> str:
        si = "SI" if self.snapshot_isolated else f"NOT SI: [{self.si_cycle}]"
        if self.serializable:
            cross = sum(t.is_distributed for t in self.transactions.values())
            return (
                f"serializable and {si}: {self.committed_count} committed "
                f"({cross} cross-shard, {self.aborted_count} aborted)"
            )
        where = ""
        if len(self.shard_cycles) > 1 and self.cross_shard_only:
            where = " (invisible to every single shard)"
        elif len(self.shard_cycles) > 1:
            where = " (also visible on some shard)"
        return (
            f"NOT serializable: cycle [{self.cycle}] "
            f"anomalies={', '.join(self.anomalies)}{where}; {si}"
        )


class SerializabilityChecker:
    """Attach to a database, run a workload, then call :meth:`report`."""

    def __init__(self, db: Database) -> None:
        self.recorder = ExecutionRecorder().attach(db)

    def report(self) -> SerializabilityReport:
        return replace(
            check_history(self.recorder.committed),
            aborted_count=self.recorder.aborted_count,
        )


def check_history(
    transactions: "Sequence[CommittedTransaction]",
) -> SerializabilityReport:
    """Certify one node's collected history: the one-shard merge."""
    return merge_shard_histories({0: transactions})


def merge_shard_histories(
    histories: "Mapping[int, Sequence[CommittedTransaction]]",
) -> SerializabilityReport:
    """Certify an execution from its per-shard committed histories.

    ``histories`` maps shard index to that shard's recorded transactions.
    Builds one MVSG per shard, maps every edge endpoint to its global id,
    and unions the edges (parallel edges of one kind and item once).
    Intra-transaction edges are dropped — a transaction never conflicts
    with itself — so a shard that holds two branches of one gid (two
    routers leasing the same gtid) or one txid twice would hide real
    conflicts: that raises :class:`~repro.errors.AnalysisError`.
    """
    branches: "dict[str, list[tuple[int, CommittedTransaction]]]" = {}
    merged: "dict[tuple, DependencyEdge]" = {}
    graphs: "dict[int, MultiVersionSerializationGraph]" = {}
    for shard in sorted(histories):
        txns = tuple(histories[shard])
        graph = graphs[shard] = MultiVersionSerializationGraph(txns)
        gid_of: "dict[int, str]" = {}
        for txn in txns:
            gid = global_id(shard, txn)
            parts = branches.setdefault(gid, [])
            if txn.txid in gid_of or (parts and parts[-1][0] == shard):
                raise AnalysisError(
                    f"shard {shard} holds two branches of {gid} "
                    f"(or txid {txn.txid} twice)"
                )
            gid_of[txn.txid] = gid
            parts.append((shard, txn))
        for edge in graph.edges:
            source, target = gid_of[edge.source], gid_of[edge.target]
            key = (source, target, edge.kind, edge.item)
            if source != target and key not in merged:
                merged[key] = DependencyEdge(*key)
    transactions = {
        gid: GlobalTransaction(
            gid, split_label(parts[0][1].label)[0], tuple(parts)
        )
        for gid, parts in branches.items()
    }
    edges = tuple(merged.values())
    adjacency: "dict[str, list[DependencyEdge]]" = {}
    for edge in edges:
        adjacency.setdefault(edge.source, []).append(edge)
    order = _serial_order(transactions, edges, adjacency)
    if order is not None:  # acyclic, so is every shard's own graph
        return SerializabilityReport(
            serializable=True,
            transactions=transactions,
            edges=edges,
            shard_cycles=dict.fromkeys(graphs),
            serial_order=order,
        )
    cycle = find_cycle_in(adjacency, roots=sorted(transactions))
    return SerializabilityReport(
        serializable=False,
        transactions=transactions,
        edges=edges,
        cycle=cycle,
        anomalies=classify_cycle(cycle, transactions),
        shard_cycles={shard: g.find_cycle() for shard, g in graphs.items()},
        si_cycle=_si_cycle(edges, sorted(transactions)),
    )


def _serial_order(transactions, edges, adjacency) -> Optional[tuple[str, ...]]:
    """An equivalent serial order by Kahn's algorithm, or ``None`` on a
    cycle.  Ties break by the first branch's commit timestamp, then gid."""
    indegree = dict.fromkeys(transactions, 0)
    for edge in edges:
        indegree[edge.target] += 1

    def key(gid: str) -> tuple[int, str]:
        return transactions[gid].branches[0][1].commit_ts, gid

    ready = [key(gid) for gid, degree in indegree.items() if not degree]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, gid = heapq.heappop(ready)
        order.append(gid)
        for edge in adjacency.get(gid, ()):
            indegree[edge.target] -= 1
            if not indegree[edge.target]:
                heapq.heappush(ready, key(edge.target))
    return tuple(order) if len(order) == len(transactions) else None


def _si_cycle(edges, gids: "list[str]") -> Optional[Cycle]:
    """A cycle with no two adjacent rw edges, or ``None`` (the history is
    SI): a walk whose one bit of state, "the last edge was rw", forbids
    a second rw in a row, so its cycles are ``(wr ∪ ww) ; rw?`` steps."""
    adjacency: "dict[tuple[str, bool], list[DependencyEdge]]" = {}
    for edge in edges:
        rw = edge.kind == "rw"
        for after_rw in (False,) if rw else (False, True):
            source = (edge.source, after_rw)
            adjacency.setdefault(source, []).append(
                DependencyEdge(source, (edge.target, rw), edge.kind, edge.item)
            )
    roots = [(gid, after_rw) for gid in gids for after_rw in (False, True)]
    cycle = find_cycle_in(adjacency, roots)
    return cycle and Cycle(
        tuple(DependencyEdge(e.source[0], e.target[0], e.kind, e.item)
              for e in cycle.edges)
    )
