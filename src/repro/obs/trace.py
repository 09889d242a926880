"""Structured transaction-lifecycle tracing.

The trace is the qualitative half of the observability layer (DESIGN.md
§10): an append-only stream of :class:`TraceEvent` records describing what
every transaction did and when — ``begin``, ``read``, ``write``,
``lock-wait-start`` / ``lock-wait-end``, ``wal-stage`` / ``wal-flush``,
``commit`` and ``abort`` (with the abort reason tag).  The engine emits
events only when a recorder is installed, so the default configuration
records nothing and costs one ``None`` check per hook.

Event schema (stable; the JSONL dump is one event per line):

``at``
    Seconds since the recorder's epoch — wall clock for threaded runs,
    simulated time for simulator runs (the installer rebinds the clock).
``kind``
    One of :data:`EVENT_KINDS`.
``txid`` / ``label``
    The transaction and its program label ("" for engine-level events).
``detail``
    Kind-specific payload: ``row`` + ``version_ts`` for reads, ``row``
    for writes, ``snapshot_ts`` for begins, ``commit_ts`` for commits,
    ``reason`` for aborts, ``blockers`` for lock waits (plus
    ``seconds``/``timed_out`` on the end event), ``batch`` for WAL
    flushes.

Because read events carry the commit timestamp of the version read and
commit events the commit timestamp, a trace is sufficient to rebuild the
:class:`~repro.analysis.recorder.CommittedTransaction` footprints the
multi-version serialization graph needs —
:meth:`TraceRecorder.committed_transactions` does exactly that, ready for
:func:`repro.analysis.check_history`.  A trace dumped to JSONL and
reloaded verifies the same way.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle (analysis -> engine)
    from repro.analysis.recorder import CommittedTransaction

#: Every event kind the engine, session layer and drivers emit.
EVENT_KINDS = (
    "begin",
    "read",
    "write",
    "lock-wait-start",
    "lock-wait-end",
    "wal-stage",
    "wal-flush",
    "commit",
    "abort",
)

#: ``version_ts`` marker for a read served from the transaction's own
#: write set (mirrors :data:`repro.engine.transaction.OWN_WRITE`).
OWN_WRITE_TS = -1


@dataclass(frozen=True)
class TraceEvent:
    """One structured lifecycle event."""

    at: float
    kind: str
    txid: int
    label: str = ""
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown trace event kind {self.kind!r}; known: {EVENT_KINDS}"
            )

    def to_json(self) -> dict:
        return {
            "at": round(self.at, 9),
            "kind": self.kind,
            "txid": self.txid,
            "label": self.label,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "TraceEvent":
        detail = dict(data.get("detail", {}))
        # JSON turns row tuples into lists; restore the RowId shape.
        row = detail.get("row")
        if isinstance(row, list) and len(row) == 2:
            detail["row"] = (row[0], row[1])
        return cls(
            at=float(data["at"]),
            kind=str(data["kind"]),
            txid=int(data["txid"]),
            label=str(data.get("label", "")),
            detail=detail,
        )


class TraceRecorder:
    """Thread-safe, append-only in-memory event stream.

    ``clock`` supplies timestamps when the emitter does not pass one; the
    default is seconds since construction on the monotonic clock.  The
    recorder never touches the engine — it is a passive sink.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        if clock is None:
            epoch = time.monotonic()
            clock = lambda: time.monotonic() - epoch  # noqa: E731
        self.clock = clock
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        txid: int,
        label: str = "",
        at: Optional[float] = None,
        **detail: object,
    ) -> TraceEvent:
        event = TraceEvent(
            at=self.clock() if at is None else at,
            kind=kind,
            txid=txid,
            label=label,
            detail=detail,
        )
        with self._lock:
            self._events.append(event)
        return event

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def events_of(self, kind: str) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # ------------------------------------------------------------------
    # JSONL persistence
    # ------------------------------------------------------------------
    def dump_jsonl(self, path) -> int:
        """Write one event per line; returns the number of events written."""
        events = self.events
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_json(), sort_keys=True))
                handle.write("\n")
        return len(events)

    @classmethod
    def load_jsonl(cls, path) -> "TraceRecorder":
        """Rebuild a recorder (events only) from a JSONL dump."""
        recorder = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    recorder._events.append(TraceEvent.from_json(json.loads(line)))
        return recorder

    # ------------------------------------------------------------------
    # MVSG bridge
    # ------------------------------------------------------------------
    def committed_transactions(self) -> "list[CommittedTransaction]":
        """Rebuild committed-transaction footprints from the event stream.

        Produces the same shape the live
        :class:`~repro.analysis.recorder.ExecutionRecorder` collects:
        reads as ``(row, version_ts)`` pairs (own-write reads excluded,
        first read of a row wins — later re-reads see the same snapshot
        version under SI), writes in event order, begin/commit
        timestamps.  ``cc_writes`` and predicate reads are not traced, so
        footprints built here support the item-level MVSG analysis.
        """
        from repro.analysis.recorder import CommittedTransaction

        begins: dict[int, TraceEvent] = {}
        reads: dict[int, dict] = {}
        writes: dict[int, list] = {}
        labels: dict[int, str] = {}
        committed: list[CommittedTransaction] = []
        for event in self.events:
            txid = event.txid
            if event.label:
                labels.setdefault(txid, event.label)
            if event.kind == "begin":
                begins[txid] = event
            elif event.kind == "read":
                version_ts = int(event.detail.get("version_ts", 0))
                if version_ts != OWN_WRITE_TS:
                    reads.setdefault(txid, {}).setdefault(
                        event.detail["row"], version_ts
                    )
            elif event.kind == "write":
                row = event.detail["row"]
                order = writes.setdefault(txid, [])
                if row not in order:
                    order.append(row)
            elif event.kind == "commit":
                begin = begins.get(txid)
                snapshot_ts = (
                    int(begin.detail.get("snapshot_ts", 0)) if begin else 0
                )
                committed.append(
                    CommittedTransaction(
                        txid=txid,
                        label=labels.get(txid, ""),
                        start_ts=snapshot_ts,
                        snapshot_ts=snapshot_ts,
                        commit_ts=int(event.detail["commit_ts"]),
                        reads=tuple(
                            sorted(reads.get(txid, {}).items(), key=repr)
                        ),
                        writes=tuple(writes.get(txid, [])),
                        cc_writes=(),
                        predicate_reads=(),
                    )
                )
        return committed
