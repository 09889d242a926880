"""Spans around the calls into each layer, recorded from outside the program.

Three timing proxies, all installed from this file only:

``txn``   around :meth:`SmallBankTransactions.run` (layer ``smallbank``),
``stmt``  around :meth:`PreparedStatement.execute` (layer ``sqlmini``),
``verb``  around every method of the session object, ``begin`` /
          ``commit`` / ``rollback`` included (layer ``engine`` on
          ``local://``, ``net`` on ``tcp://``, ``cluster`` on
          ``cluster://`` — whoever owns the session object).

A span is ``(kind, name, start, end, parent, txn)``: ``parent`` is the
index of the enclosing span in the same client's list (``-1`` at the
top), ``txn`` numbers the client's transactions.  Spans stay in memory;
:func:`dump_jsonl` writes them when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.sqlmini import PreparedStatement

_clock = time.perf_counter


class ClientTrace:
    """One client's spans; clients never share one, so no locking."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self.spans: list = []
        self.txn = -1
        self._open = -1  # index of the innermost open span

    def begin(self, kind: str, name: str) -> "tuple[int, int]":
        index = len(self.spans)
        self.spans.append([kind, name, _clock(), 0.0, self._open, self.txn])
        parent, self._open = self._open, index
        return index, parent

    def end(self, index: int, parent: int) -> None:
        self.spans[index][3] = _clock()
        self._open = parent


class TracedSession:
    """Forwards to the real session, timing every method call."""

    def __init__(self, session, trace: ClientTrace) -> None:
        self._session = session
        self._trace = trace

    def __getattr__(self, name: str):
        attr = getattr(self._session, name)
        if not callable(attr):
            return attr
        trace = self._trace

        def timed(*args, **kwargs):
            index, parent = trace.begin("verb", name)
            try:
                return attr(*args, **kwargs)
            finally:
                trace.end(index, parent)

        # Cache on the instance: __getattr__ then runs once per verb.
        self.__dict__[name] = timed
        return timed


class TracedTransactions:
    """:class:`SmallBankTransactions` whose ``run`` opens a ``txn`` span
    and hands the program a :class:`TracedSession`."""

    def __init__(self, transactions, trace: ClientTrace) -> None:
        self._transactions = transactions
        self._trace = trace

    def run(self, session, program: str, args):
        trace = self._trace
        trace.txn += 1
        index, parent = trace.begin("txn", program)
        try:
            return self._transactions.run(
                TracedSession(session, trace), program, args
            )
        finally:
            trace.end(index, parent)


@contextmanager
def traced_statements():
    """Time :meth:`PreparedStatement.execute` for calls made on a
    :class:`TracedSession`; untraced sessions pass straight through."""
    original = PreparedStatement.execute

    def execute(self, session, params=None):
        if not isinstance(session, TracedSession):
            return original(self, session, params)
        trace = session._trace
        index, parent = trace.begin("stmt", self.kind)
        try:
            return original(self, session, params)
        finally:
            trace.end(index, parent)

    PreparedStatement.execute = execute
    try:
        yield
    finally:
        PreparedStatement.execute = original


def self_times(traces: "list[ClientTrace]") -> dict:
    """Seconds of self time per span kind, plus span counts.

    Commit verbs are also broken out (``commit``) so the engine's commit
    path can be told from its statement verbs.
    """
    total: dict = defaultdict(float)
    count: dict = defaultdict(int)
    for trace in traces:
        spans = trace.spans
        child_time = [0.0] * len(spans)
        for kind, name, start, end, parent, _txn in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (kind, name, start, end, _parent, _txn) in enumerate(spans):
            own = (end - start) - child_time[index]
            total[kind] += own
            count[kind] += 1
            if kind == "verb" and name == "commit":
                total["commit"] += own
            if kind == "txn":
                total["txn_span"] += end - start
    return {"seconds": dict(total), "count": dict(count)}


def dump_jsonl(traces: "list[ClientTrace]", path, max_txns: int) -> None:
    """Write the spans of each client's first ``max_txns`` transactions
    (the totals above use all of them; the file is a bounded sample)."""
    with open(path, "w") as out:
        for trace in traces:
            for index, (kind, name, start, end, parent, txn) in enumerate(
                trace.spans
            ):
                if txn >= max_txns:
                    break
                out.write(
                    json.dumps(
                        {
                            "client": trace.client_id,
                            "span": index,
                            "parent": parent,
                            "txn": txn,
                            "kind": kind,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
