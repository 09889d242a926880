"""Multi-version serialization graph (MVSG) construction and cycle search.

Following Adya's direct serialization graph over committed transactions:

* **wr** (read dependency): ``T -> U`` when U read the version T installed;
* **ww** (write dependency): ``T -> U`` when U installed the version
  immediately following T's on some item (version order = commit order);
* **rw** (anti-dependency): ``T -> U`` when U installed the version
  immediately following the one T *read* on some item.  Reads of
  "row absent" (version timestamp 0) anti-depend on the item's first
  writer.

The committed history is serializable iff the graph is acyclic; a cycle is
returned as a witness.  Optional conservative phantom edges connect
predicate readers to concurrent later writers of the same table —
disabled by default and unnecessary for workloads (like SmallBank runs)
whose predicate-read tables are never written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from repro.analysis.recorder import CommittedTransaction
from repro.engine.locks import RowId


@dataclass(frozen=True)
class DependencyEdge:
    """One dependency between committed transactions."""

    source: Hashable  # a txid, or a global id in the merged graph
    target: Hashable
    kind: str  # "wr" | "ww" | "rw" | "predicate-rw"
    item: Optional[RowId] = None

    def __str__(self) -> str:
        where = f" on {self.item}" if self.item is not None else ""
        return f"T{self.source} --{self.kind}--> T{self.target}{where}"


@dataclass
class Cycle:
    """A cycle in the MVSG: the witness of non-serializability."""

    edges: tuple[DependencyEdge, ...]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(edge.kind for edge in self.edges)

    def __str__(self) -> str:
        return "; ".join(str(edge) for edge in self.edges)


def find_cycle_in(
    adjacency: "Mapping[Hashable, Sequence[DependencyEdge]]",
    roots: "Sequence[Hashable]",
) -> Optional[Cycle]:
    """A cycle witness in an arbitrary dependency adjacency, or ``None``.

    Shared by the per-shard graph below (integer txids) and the
    certifier's merged graph (string global transaction ids) — node ids
    only need to be hashable.  ``roots`` lists every node, in the DFS
    start order that keeps witnesses deterministic.

    Iterative DFS with colouring; reconstructs the edge sequence of the
    first back-edge found.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in roots}
    for root in roots:
        if colour[root] != WHITE:
            continue
        path: list[DependencyEdge] = []
        stack: "list[tuple[Hashable, int]]" = [(root, 0)]
        colour[root] = GREY
        while stack:
            node, edge_index = stack[-1]
            edges = adjacency.get(node, [])
            if edge_index >= len(edges):
                colour[node] = BLACK
                stack.pop()
                if path:
                    path.pop()
                continue
            stack[-1] = (node, edge_index + 1)
            edge = edges[edge_index]
            if colour.get(edge.target, BLACK) == GREY:
                path.append(edge)
                start = next(
                    i for i, e in enumerate(path) if e.source == edge.target
                )
                return Cycle(tuple(path[start:]))
            if colour.get(edge.target, BLACK) == WHITE:
                colour[edge.target] = GREY
                path.append(edge)
                stack.append((edge.target, 0))
        # path is rebuilt per root
    return None


class MultiVersionSerializationGraph:
    """The dependency graph of one committed history."""

    def __init__(
        self,
        transactions: Iterable[CommittedTransaction],
        *,
        phantom_edges: bool = False,
    ) -> None:
        self.transactions = {t.txid: t for t in transactions}
        self.edges: list[DependencyEdge] = []
        self._adjacency: dict[int, list[DependencyEdge]] = {}
        self._build(phantom_edges)

    # ------------------------------------------------------------------
    def _add(self, edge: DependencyEdge) -> None:
        if edge.source == edge.target:
            return
        self.edges.append(edge)
        self._adjacency.setdefault(edge.source, []).append(edge)

    def _build(self, phantom_edges: bool) -> None:
        # Writers per item, ordered by commit timestamp (= version order).
        writers: dict[RowId, list[CommittedTransaction]] = {}
        for txn in self.transactions.values():
            for row in txn.writes:
                writers.setdefault(row, []).append(txn)
        for row, row_writers in writers.items():
            row_writers.sort(key=lambda t: t.commit_ts)
            for earlier, later in zip(row_writers, row_writers[1:]):
                self._add(
                    DependencyEdge(earlier.txid, later.txid, "ww", row)
                )

        writer_by_version: dict[tuple[RowId, int], int] = {}
        for row, row_writers in writers.items():
            for txn in row_writers:
                writer_by_version[(row, txn.commit_ts)] = txn.txid

        for reader in self.transactions.values():
            for row, version_ts in reader.reads:
                # wr: the writer of the version we read (bootstrap = none).
                writer = writer_by_version.get((row, version_ts))
                if writer is not None:
                    self._add(DependencyEdge(writer, reader.txid, "wr", row))
                # rw: the writer of the next version after the one we read.
                successor = self._first_writer_after(
                    writers.get(row, ()), version_ts
                )
                if successor is not None:
                    self._add(
                        DependencyEdge(reader.txid, successor, "rw", row)
                    )
        if phantom_edges:
            self._build_phantom_edges(writers)

    def _build_phantom_edges(
        self, writers: dict[RowId, list[CommittedTransaction]]
    ) -> None:
        """Conservative predicate anti-dependencies (table granularity)."""
        tables_written: dict[str, list[CommittedTransaction]] = {}
        for row, row_writers in writers.items():
            tables_written.setdefault(row[0], []).extend(row_writers)
        for reader in self.transactions.values():
            for predicate in reader.predicate_reads:
                for writer in tables_written.get(predicate.table, ()):
                    if writer.txid == reader.txid:
                        continue
                    if writer.commit_ts > reader.snapshot_ts:
                        self._add(
                            DependencyEdge(
                                reader.txid,
                                writer.txid,
                                "predicate-rw",
                                (predicate.table, predicate.description),
                            )
                        )

    @staticmethod
    def _first_writer_after(
        row_writers: Iterable[CommittedTransaction], version_ts: int
    ) -> Optional[int]:
        best: Optional[CommittedTransaction] = None
        for writer in row_writers:
            if writer.commit_ts > version_ts and (
                best is None or writer.commit_ts < best.commit_ts
            ):
                best = writer
        return best.txid if best is not None else None

    # ------------------------------------------------------------------
    def find_cycle(self) -> Optional[Cycle]:
        """A cycle witness, or None when the history is serializable."""
        return find_cycle_in(self._adjacency, roots=sorted(self.transactions))
