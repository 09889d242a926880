"""``repro.net.client`` — the synchronous network backend of the facade.

:class:`NetworkConnection` implements the :class:`repro.api.Connection`
surface over a pool of :class:`WireConnection` sockets;
:meth:`NetworkConnection.session` hands out a :class:`NetworkSession`
that mirrors the statement surface of the in-process
:class:`~repro.engine.session.Session`, so the SmallBank programs, the
mini-SQL executor and the threaded driver run against it unmodified.
That surface is :class:`RemoteVerbs`, written once for every session
whose engine is elsewhere (the cluster router's too).

Semantics notes
---------------

* One wire connection == one server session == at most one transaction,
  exactly the engine's session model.  ``session()`` checks a wire out of
  the pool; ``session.close()`` returns it (rolling back first if a
  transaction is still open).  Broken wires, and wires with a reply
  still unread, are discarded, never pooled.
* Every operation but a one-way frame is one synchronous
  request/response round trip — a whole transaction program too:
  :meth:`NetworkSession.call_program` sends one ``CALL`` and the server
  begins, runs the body next to the engine and commits (DESIGN.md
  §11.5).  A blocking round trip is one :meth:`WireConnection.call`,
  which writes the request and reads a reply that arrives as one whole
  frame in its own frame (anything else goes on through the wire's
  :class:`~repro.net.protocol.FrameDecoder`);
  the session checks its wire out of the pool and back in its own
  frames too.  The statement verbs remain for ad-hoc transactions; their
  only elision is the deferred BEGIN, which rides on the transaction's
  first request.  The verbs the cluster router sends to several shards
  at once — the 2PC votes, its sweeps (ping, stats, vacuum) — exist
  only split (``start_*``: send now, return the callable that reads the
  reply; ``start_*(...)()`` is the blocking call).  The 2PC decisions
  owe no reply (:meth:`NetworkSession.send_one_way`; ``flush`` settles
  them).  Every request is written by :meth:`WireConnection.send`.
* A cluster router's timestamps (``clock``: ``{"ts": T}``, plus
  ``"snapshot_ts"`` past a transaction's first branch, DESIGN.md §12)
  ride on a BEGIN or a CALL.
* ``timeout`` bounds *connection establishment* (and pool checkout).
  RPCs then block until the server answers: a lock wait on the server can
  legitimately take as long as the engine's ``lock_timeout`` allows, and
  cutting it short client-side would distort the measured contention.
* ``update(..., changes)`` with a callable is evaluated client-side: READ
  the row, apply the callable, WRITE the merged row back — the same
  read-then-write engine footprint a local ``update`` has.
* Errors round-trip by class (see :mod:`repro.net.protocol`), so retry
  policies behave identically over the wire.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Optional, Union

from repro.api import Connection, Program
from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    ReproError,
    TransactionAborted,
    TransactionStateError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    LENGTH_BYTES,
    RECV_BYTES,
    STATEMENT_OPS,
    FrameDecoder,
    decode_payload,
    encode_request,
    next_frame,
    raise_error_payload,
    unpack_length,
)
from repro.sqlmini.ast import Select
from repro.sqlmini.executor import StatementResult, parse_cached

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids workload cycle)
    from repro.obs import Observability

Row = dict
Changes = Union[Mapping[str, object], Callable[[Row], Mapping[str, object]]]

#: Redial policy of ``NetworkConnection._start_once``: up to this many
#: tries, sleeping ``RECONNECT_BACKOFF * 2^n`` seconds (jittered, capped
#: at ``RECONNECT_BACKOFF_MAX``) between them.
RECONNECT_ATTEMPTS = 3
RECONNECT_BACKOFF = 0.05
RECONNECT_BACKOFF_MAX = 1.0


class WireConnection:
    """One framed socket to a :class:`repro.net.DatabaseServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        rpc_deadline: Optional[float] = None,
    ) -> None:
        #: The wire's framing state: a reply may take any number of
        #: ``recv``s (the server's end parses with the same class).
        self.decoder = FrameDecoder(max_frame)
        self.broken = False
        #: A request is out and its reply unread: until it is read the
        #: wire takes no other request and is never pooled.
        self.awaiting_reply = False
        #: Per-RPC response deadline in seconds (None, the default: block
        #: until the server answers; see the module docstring for why).
        self.rpc_deadline = rpc_deadline
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ConnectionClosed(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        # Frames are small and latency-bound: disable Nagle.
        self.sock.settimeout(rpc_deadline)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, op: str, args: Mapping[str, object], *, reply: bool = True) -> None:
        """Write one request: every request on this wire passes here.
        :meth:`call` reads its reply at once; a split request returns
        and :meth:`receive` reads it later (the cluster router sends to
        several shards before it reads a reply).  ``reply=False`` writes
        a one-way frame, marked ``"noreply"``: the server answers
        nothing, and the wire is free for its next request at once."""
        if self.broken or self.awaiting_reply:
            self.broken = True  # an unread reply would answer this request
            raise ConnectionClosed("wire connection already failed")
        frame = encode_request(op, args if reply else {**args, "noreply": True})
        try:
            self.sock.sendall(frame)
        except OSError as exc:
            self.broken = True
            raise ConnectionClosed(f"socket error while sending: {exc}") from None
        self.awaiting_reply = reply

    def receive(
        self, deadline: Optional[float] = None, data: Optional[bytes] = None
    ) -> dict:
        """The reply to what :meth:`send` wrote, or the server's error;
        ``data``: its first bytes, already read.

        ``deadline`` bounds *this* wait (overriding the wire's
        ``rpc_deadline`` for its duration).  A transport failure —
        deadline expiry included — breaks the wire for good: a late
        response could not be paired with its request anyway (so only a
        wire that got its reply needs its own timeout back).
        """
        override = deadline is not None and deadline != self.rpc_deadline
        try:
            if override:
                self.sock.settimeout(deadline)
            response = next_frame(self.sock, self.decoder, data)
            if response is None:
                raise ConnectionClosed("server closed the connection")
            if override:
                self.sock.settimeout(self.rpc_deadline)
        except (ConnectionClosed, ProtocolError):
            self.broken = True
            raise
        self.awaiting_reply = False
        if response.get("ok"):
            return response
        raise raise_error_payload(response.get("error"))

    def call(self, op: str, args: Mapping[str, object]) -> dict:
        """One request/response round trip: :meth:`send`, one ``recv``,
        and the reply decoded in this frame when those bytes are exactly
        one whole frame.  Anything else read — part of a frame, several,
        the end of the stream — goes on through the wire's
        :class:`FrameDecoder` in :meth:`receive`, with the same errors."""
        self.send(op, args)
        decoder = self.decoder
        try:
            data = self.sock.recv(RECV_BYTES)
            response = (
                decode_payload(memoryview(data)[LENGTH_BYTES:])
                if len(data) > LENGTH_BYTES
                and not decoder.buffer
                and unpack_length(data)[0] == len(data) - LENGTH_BYTES <= decoder.max_frame
                else None
            )
        except OSError as exc:  # reset, timeout (a deadline), closed
            self.broken = True
            raise ConnectionClosed(f"socket error while receiving: {exc}") from None
        except ProtocolError:
            self.broken = True
            raise
        if response is None:
            return self.receive(data=data)
        self.awaiting_reply = False
        if response.get("ok"):
            return response
        raise raise_error_payload(response.get("error"))

    def close(self) -> None:
        self.broken = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class RemoteVerbs:
    """The ten statement verbs of a session whose engine is elsewhere.

    Same names, signatures and ``kind=`` keywords as the in-process
    :class:`~repro.engine.session.Session`; each is written over the one
    method a subclass supplies, ``_statement(verb, table, *args)``, which
    runs the :data:`~repro.net.protocol.STATEMENT_OPS` row ``verb``
    wherever the rows live and returns its result.  ``kind`` tags stay
    here: remote engine sessions carry no statement hook (those exist for
    the simulator's cost model).
    """

    def _statement(self, verb: str, table: str, *args: object) -> object:
        raise NotImplementedError

    def select(
        self, table: str, key: Hashable, *, kind: str = "select"
    ) -> Optional[Row]:
        return self._statement("select", table, key)

    def select_for_update(
        self, table: str, key: Hashable, *, kind: str = "select-for-update"
    ) -> Optional[Row]:
        return self._statement("select_for_update", table, key)

    def lookup_unique(
        self, table: str, column: str, value: Hashable, *, kind: str = "select"
    ) -> Optional[tuple[Hashable, Row]]:
        found = self._statement("lookup_unique", table, column, value)
        return None if found is None else tuple(found)

    def scan(
        self,
        table: str,
        predicate: Optional[Callable[[Row], bool]] = None,
        description: str = "<scan>",
        *,
        kind: str = "scan",
    ) -> list[tuple[Hashable, Row]]:
        # The engine's scan reads every row and filters afterwards, so
        # applying the (unserializable) predicate here leaves the remote
        # read footprint identical.
        return [
            (key, row)
            for key, row in self._statement("scan", table, description)
            if predicate is None or predicate(row)
        ]

    def update(
        self, table: str, key: Hashable, changes: Changes, *, kind: str = "update"
    ) -> bool:
        """Read, merge here (``changes`` may be a callable), write back:
        the read-then-write engine footprint of a local ``update``."""
        current = self._statement("select", table, key)
        if current is None:
            return False
        merged = dict(current)
        merged.update(changes(current) if callable(changes) else changes)
        self._statement("write", table, key, merged)
        return True

    def identity_update(
        self, table: str, key: Hashable, column: str, *, kind: str = "identity-update"
    ) -> bool:
        return self.update(table, key, lambda row: {column: row[column]}, kind=kind)

    def write(
        self, table: str, key: Hashable, row: Optional[Row], *, kind: str = "update"
    ) -> None:
        self._statement("write", table, key, row)

    def insert(self, table: str, row: Row, *, kind: str = "insert") -> None:
        self._statement("insert", table, row)

    def delete(self, table: str, key: Hashable, *, kind: str = "delete") -> None:
        self._statement("delete", table, key)


class NetworkSession(RemoteVerbs):
    """Session facade speaking the wire protocol (see module docstring)."""

    #: The reply to the last timestamped CALL: its ``snapshot_ts``, ``ts``.
    stamp: "dict | None" = None

    def __init__(self, connection: "NetworkConnection", wire: WireConnection) -> None:
        self._connection = connection
        self._wire: Optional[WireConnection] = wire
        self._in_txn = False
        #: The deferred BEGIN's fields (``begin``: the label), until they
        #: ride on a request.
        self._pending_begin: Optional[dict] = None
        #: False once the current transaction has taken any lock or
        #: staged any write (see :attr:`is_readonly`).
        self._readonly = True

    # ------------------------------------------------------------------
    def _heal(self, wire: WireConnection, exc: ReproError) -> BaseException:
        """What a failed request on ``wire`` leaves behind; returns the
        exception to raise.

        The server aborted the transaction (deadlock victim, SSI
        certifier, first-updater-wins, ...): mirror the local session,
        whose transaction handle goes inactive.  The wire failed, or the
        server found the request malformed: discard the wire.  An
        "unknown ... id" answer proves the server restarted since the id
        was learnt — ids are namespaced per server instance — and that
        *every* cached id is stale.  Nothing ran (the server checks the
        id first): clear the caches and surface the transient
        :class:`ConnectionClosed` this is, so retry layers treat it like
        any reconnect artifact; the next transaction re-learns fresh ids.
        """
        if isinstance(exc, TransactionAborted):
            self._in_txn = False
            return exc
        self._lose(wire)
        text = str(exc)
        if isinstance(exc, ProtocolError) and (
            "unknown statement id" in text or "unknown program id" in text
        ):
            self._connection._sids.clear()
            self._connection._pids.clear()
            return ConnectionClosed(
                f"server restarted: id caches invalidated ({exc})"
            )
        return exc

    def _begin_rides(self, args: dict) -> None:
        """Deferred BEGIN: piggybacked on the transaction's first request
        (the server begins before executing the operation), saving a
        round trip per transaction.  Whatever the operation's outcome,
        the BEGIN itself has run once the server answers."""
        args.update(self._pending_begin)
        self._pending_begin = None

    def _call(self, op: str, args: Optional[dict] = None) -> dict:
        """One round trip in one :meth:`WireConnection.call`; ``args``,
        the request's fields, is this request's own dict (a deferred
        BEGIN is added to it)."""
        wire = self._wire
        if wire is None:
            raise ConnectionClosed("session is closed")
        if args is None:
            args = {}
        if self._pending_begin is not None:
            self._begin_rides(args)
        obs = self._connection.obs
        started = obs.now() if obs is not None else 0.0
        ok = False
        try:
            response = wire.call(op, args)
            ok = True
            return response
        except (TransactionAborted, ConnectionClosed, ProtocolError) as exc:
            healed = self._heal(wire, exc)
            if healed is exc:
                raise
            raise healed from exc
        finally:
            if obs is not None:
                obs.net_client_rpc(op, obs.now() - started, ok)

    def _send(self, op: str, args: dict) -> float:
        """First half of a split request (the ``start_*`` verbs); returns
        when the request left (``obs`` clock), which :meth:`_receive`
        wants back."""
        wire = self._wire
        if wire is None:
            raise ConnectionClosed("session is closed")
        if self._pending_begin is not None:
            self._begin_rides(args)
        obs = self._connection.obs
        started = obs.now() if obs is not None else 0.0
        try:
            wire.send(op, args)
        except ConnectionClosed:
            self._lose(wire)
            if obs is not None:
                obs.net_client_rpc(op, obs.now() - started, False)
            raise
        return started

    def _lose(self, wire: WireConnection) -> None:
        self._in_txn = False
        self._wire = None
        self._connection._discard(wire)

    def _receive(self, op: str, started: float) -> dict:
        """Second half of a split request: the reply to what
        :meth:`_send` wrote at ``started``."""
        wire = self._wire
        if wire is None:
            raise ConnectionClosed("session is closed")
        obs = self._connection.obs
        ok = False
        try:
            response = wire.receive()
            ok = True
            return response
        except (TransactionAborted, ConnectionClosed, ProtocolError) as exc:
            healed = self._heal(wire, exc)
            if healed is exc:
                raise
            raise healed from exc
        finally:
            if obs is not None:
                obs.net_client_rpc(op, obs.now() - started, ok)

    # ------------------------------------------------------------------
    # Transaction control (facade session contract)
    # ------------------------------------------------------------------
    def begin(
        self, label: str = "", clock: "Mapping[str, int] | None" = None
    ) -> None:
        """Open a transaction; the BEGIN itself is deferred.

        No RPC happens here: the server-side BEGIN rides on the
        transaction's first statement (an empty transaction never reaches
        the server at all).  The snapshot is therefore taken at the first
        statement — indistinguishable under snapshot isolation, since an
        idle transaction cannot observe the gap.
        """
        if self._in_txn:
            raise TransactionStateError(
                "session already has an active transaction"
            )
        self._pending_begin = {"begin": label, **(clock or {})}
        self._in_txn = True
        self._readonly = True

    def start_begin_now(
        self, label: str = "", clock: "Mapping[str, int] | None" = None
    ) -> "Callable[[], dict]":
        """Open a transaction and send its BEGIN now; the callable
        returned reads the reply, which names its ``snapshot_ts``."""
        self.begin(label)
        self._pending_begin = None
        request = {"label": label, **(clock or {})}
        return partial(self._receive, "BEGIN", self._send("BEGIN", request))

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    @property
    def is_readonly(self) -> bool:
        """True while the current transaction took no lock, staged no
        write: the cluster router commits such branches plainly and sends
        only writers through the prepare round."""
        return self._readonly

    def call_program(
        self,
        program: Program,
        args: Mapping[str, object],
        label: str = "",
        *,
        end: str = "commit",
        clock: "Mapping[str, int] | None" = None,
    ) -> object:
        """Run a whole registered program server-side in one ``CALL``.

        The server begins a transaction labelled ``label`` — or joins
        the one :meth:`start_begin_now` opened — runs the body and ends it as
        ``end`` says: ``"commit"``, ``"prepare:<gtid>"`` (vote and detach,
        phase one of 2PC) or ``"open"`` (left for further statements).
        A business rollback, concurrency abort or NO vote arrives as the
        exception a statement-by-statement run would raise, and the
        server has left no transaction behind.  A call that needs a held
        row lock waits for it server-side — except one joining a
        transaction that has already read or written (``begin``,
        a statement, then this), which cannot be undone to a mark: if it
        blocks after staging a write of its own, the server aborts the
        whole transaction (:class:`~repro.errors.TransactionAborted`,
        "after staging writes") instead.  ``clock``: the timestamps of
        the transaction it begins; the reply's land in :attr:`stamp`.
        """
        if self._pending_begin is not None:  # begin() then call: one txn
            label, self._pending_begin = self._pending_begin["begin"], None
        pids = self._connection._pids
        key = factory, spec = program.factory, program.spec
        pid = pids.get(key)
        if pid is None:
            response = self._call("PREPARE_PROGRAM", {"factory": factory, "spec": spec})
            pid = pids[key] = int(response["pid"])
        request: dict = {"pid": pid, "args": args, "label": label}
        if end != "commit":
            request["end"] = end
        if clock:
            request.update(clock)
        self._in_txn = False  # unless the call succeeds and ends "open"
        response = self._call("CALL", request)
        self._in_txn = end == "open"
        self._readonly = False
        if clock:
            self.stamp = response
        return response.get("result")

    # ------------------------------------------------------------------
    # Two-phase commit (cluster coordinator drives these)
    # ------------------------------------------------------------------
    def start_prepare_2pc(self, gtid: str) -> "Callable[[], int]":
        """Vote on this session's transaction under ``gtid`` (phase one);
        a YES reads as its prepare timestamp.

        On a YES the server detaches the transaction from this wire —
        only coordinator decisions (by gtid) resolve it; on a NO (a
        ``TransactionAborted`` subclass) the engine has rolled it back.
        """
        sent = self._send("PREPARE_2PC", {"gtid": gtid})

        def finish() -> int:
            vote = self._receive("PREPARE_2PC", sent)
            self._in_txn = False
            return vote["ts"]

        return finish

    def send_one_way(self, op: str, args: Mapping[str, object]) -> None:
        """Write ``op`` as a one-way frame (the 2PC decisions): the server
        applies it in this wire's order, answers nothing and counts a
        refusal (``decisions_refused``).  The wire is free again at once;
        a failed one is discarded and the error raised."""
        wire = self._wire
        if wire is None:
            raise ConnectionClosed("session is closed")
        try:
            wire.send(op, args, reply=False)
        except ConnectionClosed:
            self._lose(wire)
            raise

    def commit(self) -> Optional[int]:
        """Commit: one COMMIT round trip, whose reply is the commit
        timestamp — or none, for an empty transaction whose deferred
        BEGIN never reached the server."""
        try:
            if self._pending_begin is not None:
                self._pending_begin = None
                return None
            return self._call("COMMIT").get("commit_ts")
        finally:
            self._in_txn = False

    def rollback(self) -> None:
        """Roll back; free when the server holds nothing of ours (the
        BEGIN never left, or the transaction already ended or aborted)."""
        if self._wire is None or not self._in_txn:
            return
        try:
            if self._pending_begin is not None:
                self._pending_begin = None
            else:
                self._call("ROLLBACK")
        finally:
            self._in_txn = False

    def close(self) -> None:
        """Roll back if needed and return the wire to the pool: a wire fit
        for reuse goes back in this frame (``NetworkConnection._release``
        is the same check-in for everything else)."""
        wire = self._wire
        if wire is None:
            return
        if self._in_txn:
            try:
                self.rollback()
            except ReproError:
                pass  # moot on close; a failed wire was discarded by _call
            if self._wire is None:
                return  # discarded during rollback
        self._wire = None
        pool = self._connection
        with pool._lock:
            if not (wire.broken or wire.awaiting_reply or pool._closed):
                pool._idle.append(wire)
                pool._checked_out -= 1
                if pool._waiting:
                    pool._returned.notify()
                return
        pool._release(wire)  # not fit for reuse: it closes the wire

    # ------------------------------------------------------------------
    # Statements (the verbs are RemoteVerbs')
    # ------------------------------------------------------------------
    def _start_statement(
        self, verb: str, table: str, *args: object
    ) -> "Callable[[], object]":
        """One :data:`~repro.net.protocol.STATEMENT_OPS` request, split
        like every ``start_*``: sent now, the callable returned reads the
        reply and hands back the verb's result."""
        op, fields, reply, takes_lock = STATEMENT_OPS[verb]
        if takes_lock:
            self._readonly = False
        sent = self._send(op, dict(zip(fields, (table, *args))))

        def finish() -> object:
            response = self._receive(op, sent)
            return None if reply is None else response[reply]

        return finish

    def _statement(self, verb: str, table: str, *args: object) -> object:
        return self._start_statement(verb, table, *args)()

    # ------------------------------------------------------------------
    # Mini-SQL (PreparedStatement.execute dispatches here)
    # ------------------------------------------------------------------
    def _takes_locks(self, sql: str) -> bool:
        """Whether a statement takes a lock or stages a write (everything
        but a plain SELECT) — what :attr:`is_readonly` tracks.  Cached on
        the connection by statement text."""
        cache = self._connection._takes_locks
        locks = cache.get(sql)
        if locks is None:
            statement = parse_cached(sql)
            locks = cache[sql] = (
                not isinstance(statement, Select) or statement.for_update
            )
        return locks

    def execute_prepared(
        self,
        sql: str,
        kind: Optional[str],
        params: "dict[str, object]",
    ) -> StatementResult:
        """Ship one prepared statement; planning happens server-side.

        ``SELECT ... INTO :var`` bindings round-trip: the server returns
        the parameters it bound and they are merged into ``params`` in
        place, matching the local executor's mutation contract.  The
        first sight of a statement sends its SQL text and learns the
        server's statement id; later calls send the id alone.
        """
        if self._takes_locks(sql):
            self._readonly = False
        sids = self._connection._sids
        sid = sids.get((sql, kind))
        if sid is not None:
            response = self._call("EXEC", {"sid": sid, "params": params})
        else:
            response = self._call("EXEC", {"sql": sql, "kind": kind, "params": params})
            if "sid" in response:
                sids[(sql, kind)] = int(response["sid"])
        returned = response.get("params")
        if isinstance(returned, dict):
            params.update(returned)
        return StatementResult(
            rows=list(response.get("rows") or []),
            rowcount=int(response.get("rowcount") or 0),
        )


class NetworkConnection(Connection):
    """Pooled facade connection to a running :class:`DatabaseServer`.

    ``pool_size`` bounds concurrent checked-out sessions; a ``session()``
    call past the bound blocks until one is returned (up to ``timeout``
    seconds, then :class:`~repro.errors.ConnectionClosed`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        obs: "Observability | None" = None,
        pool_size: int = 8,
        timeout: Optional[float] = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        url: str = "",
        rpc_deadline: Optional[float] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.host = host
        self.port = port
        self.obs = obs
        self.pool_size = pool_size
        self.timeout = timeout
        self.max_frame = max_frame
        self.url = url or f"tcp://{host}:{port}"
        #: Per-RPC response deadline applied to every wire (None = RPCs
        #: block until the server answers).
        self.rpc_deadline = rpc_deadline
        self._backoff_rng = random.Random(f"net-reconnect/{host}:{port}")
        self._idle: list[WireConnection] = []
        self._lock = threading.Lock()
        #: Wires out, and callers waiting for one back: an uncontended
        #: checkout or return is a C lock and a counter, nothing more.
        self._checked_out = 0
        self._waiting = 0
        self._returned = threading.Condition(self._lock)
        self._closed = False
        #: Id caches, (sql, kind) -> server sid and (factory, spec) ->
        #: server pid, shared by every session: ids are server-global and
        #: the pool only ever dials one server.  (Plain dicts: GIL-atomic
        #: get/set, and a lost race merely registers the text twice.)
        self._sids: "dict[tuple[str, Optional[str]], int]" = {}
        self._pids: "dict[tuple[str, str], int]" = {}
        self._takes_locks: "dict[str, bool]" = {}  # by statement text

    # --- pool plumbing --------------------------------------------------
    def _acquire(self) -> WireConnection:
        if self._closed:
            raise ConnectionClosed(f"connection {self.url} is closed")
        with self._lock:
            if self._checked_out >= self.pool_size:
                self._waiting += 1
                try:
                    free = self._returned.wait_for(
                        lambda: self._checked_out < self.pool_size, self.timeout
                    )
                finally:
                    self._waiting -= 1
                if not free:
                    raise ConnectionClosed(
                        f"connection pool exhausted ({self.pool_size} wire "
                        f"connections all checked out for {self.timeout}s)"
                    )
            self._checked_out += 1
            if self._idle:  # only wires fit for reuse are ever put there
                return self._idle.pop()
        try:
            return WireConnection(
                self.host, self.port,
                timeout=self.timeout, max_frame=self.max_frame,
                rpc_deadline=self.rpc_deadline,
            )
        except BaseException:
            self._release(None)
            raise

    def _release(self, wire: Optional[WireConnection]) -> None:
        """Free a slot; pool its wire (None: never dialled) if reusable."""
        with self._lock:
            pooled = wire is not None and not (
                wire.broken or wire.awaiting_reply or self._closed
            )
            if pooled:
                self._idle.append(wire)
            self._checked_out -= 1
            if self._waiting:
                self._returned.notify()
        if wire is not None and not pooled:
            wire.close()

    def _discard(self, wire: WireConnection) -> None:
        wire.broken = True  # so ``_release`` closes it
        self._release(wire)

    def _start_once(
        self,
        op: str,
        _deadline: Optional[float] = None,
        _attempts: int = RECONNECT_ATTEMPTS,
        _attempt: int = 0,
        **args: object,
    ) -> "Callable[[], dict]":
        """One out-of-session RPC with automatic reconnect, split like
        every ``start_*``: sent before this returns, read by the callable
        returned — so the router can sweep all shards from one thread.

        Every such operation is idempotent (PING, STATS, VACUUM), so a
        connection failure in either half is retried on a *fresh* wire
        while attempts are left.  Server-side errors (which prove the
        request arrived) propagate immediately.  ``_attempts=1``: health
        probes want the fast no.
        """
        failure: Optional[ConnectionClosed] = None
        for attempt in range(_attempt, _attempts):
            if attempt:
                if self.obs is not None:
                    self.obs.net_reconnect(op)
                backoff = min(
                    RECONNECT_BACKOFF * 2.0 ** (attempt - 1), RECONNECT_BACKOFF_MAX
                )
                time.sleep(backoff * (0.5 + self._backoff_rng.random()))
            if self._closed:
                raise ConnectionClosed(f"connection {self.url} is closed")
            try:
                wire = self._acquire()
            except ConnectionClosed as exc:
                failure = exc
                continue
            try:
                wire.send(op, args)
            except ConnectionClosed as exc:
                self._discard(wire)
                failure = exc
                continue
            except BaseException:
                self._discard(wire)
                raise

            def finish() -> dict:
                try:
                    response = wire.receive(_deadline)
                except ConnectionClosed:
                    self._discard(wire)
                    if attempt + 1 == _attempts:
                        raise
                    return self._start_once(
                        op, _deadline, _attempts, attempt + 1, **args
                    )()
                except BaseException:
                    self._discard(wire)
                    raise
                self._release(wire)
                return response

            return finish
        assert failure is not None
        raise failure

    # --- Connection surface ----------------------------------------------
    def session(self) -> NetworkSession:
        """A session on a wire of the pool: an idle one under a free slot
        is checked out in this frame, anything else (a wait for a slot, a
        new wire) by ``_acquire``."""
        with self._lock:
            if self._idle and self._checked_out < self.pool_size:
                self._checked_out += 1
                return NetworkSession(self, self._idle.pop())
        return NetworkSession(self, self._acquire())

    def _probe_deadline(self, deadline: Optional[float]) -> Optional[float]:
        """Bound for introspection RPCs: explicit ``deadline``, else the
        configured per-RPC deadline, else the connection ``timeout``."""
        for bound in (deadline, self.rpc_deadline):
            if bound is not None:
                return bound
        return self.timeout

    def ping(self, deadline: Optional[float] = None) -> bool:
        """Liveness probe, bounded and never retried: a down server
        answers ``False`` fast instead of hanging."""
        try:
            return self.start_ping(deadline)()
        except ConnectionClosed:
            return False

    def start_ping(self, deadline: Optional[float] = None) -> "Callable[[], bool]":
        """:meth:`ping` split, its failure raised (``ConnectionClosed``)."""
        sent = self._start_once("PING", self._probe_deadline(deadline), 1)
        return lambda: bool(sent().get("pong"))

    def stats(self, deadline: Optional[float] = None) -> dict:
        """Server counters; bounded, so a dead server surfaces as
        :class:`ConnectionClosed` instead of an infinite hang."""
        return self.start_stats(deadline)()

    def start_stats(self, deadline: Optional[float] = None) -> "Callable[[], dict]":
        sent = self._start_once("STATS", self._probe_deadline(deadline))
        return lambda: {**sent()["stats"], "backend": "network"}

    def vacuum(self) -> int:
        """Prune server-side version chains; returns versions dropped."""
        return self.start_vacuum()()

    def start_vacuum(self) -> "Callable[[], int]":
        sent = self._start_once("VACUUM")
        return lambda: int(sent()["pruned"])

    def flush(self) -> None:
        """Settle: once this returns, the server has applied every one-way
        frame (:meth:`NetworkSession.send_one_way`) written on a wire now
        idle.  Each idle wire gets one PING, whose reply proves every
        earlier frame on it was served; a wire that fails is discarded
        (what it carried is the resolver's).  Call it before reading
        server state that counts decisions."""
        with self._lock:
            wires, self._idle = self._idle, []
            self._checked_out += len(wires)
        sent = []
        for wire in wires:
            try:
                wire.send("PING", {})
                sent.append(wire)
            except ConnectionClosed:
                self._discard(wire)
        for wire in sent:
            try:
                wire.receive(self._probe_deadline(None))
            except ReproError:
                self._discard(wire)
            else:
                self._release(wire)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for wire in idle:
            wire.close()
