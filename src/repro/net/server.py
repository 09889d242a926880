"""``repro.net.server`` — selector-loop TCP front end for a :class:`Database`.

Architecture (DESIGN.md §11)
----------------------------

One thread, written directly on :mod:`selectors` and non-blocking
sockets, owns *framing, dispatch, lock waits and connection lifecycle*.
Every admitted connection gets one engine
:class:`~repro.engine.session.Session` (per-connection sessions: one
transaction at a time, exactly the paper's client model) whose waiter
never waits (:class:`~repro.engine.session.NoWaitWaiter`).

A readable socket costs one ``recv_into`` the connection's reusable
buffer and one :meth:`~repro.net.protocol.FrameDecoder.feed`.  A read
that was exactly one whole request, on a connection with nothing queued
or unsent and no fault plan installed — a synchronous client's every
request — is answered where it was read: served, encoded and sent with
one ``send`` straight from ``_on_readable``.  Anything else (a burst, a
fragment, a request behind a parked one, a fault plan) is queued and
served in order by ``_pump``, the responses gathered and written with
one ``send``.  Only what the kernel does not take waits in the
connection's outbox for writability, so a client that does not read its
replies costs memory, never the loop.  Other threads reach the loop
through a deque and one wake-up socket; timed work (``net-delay-frame``,
lock timeouts, autovacuum) is a deadline heap that sets the selector's
timeout.  An event-loop framework in between cost 1.5-3 us of the 18 per
``PING``, a thread per connection far more once connections outnumber
cores (DESIGN §11).

**Parking.**  The engine core is non-blocking by design: an operation
that cannot proceed returns ``WaitOn`` *instead of* applying itself, and
the session raises it as :class:`~repro.engine.session.WouldBlock`.  So
every request runs on the loop thread, and one that would block is
undone (``_serve``) and *parked* at the head of its connection's queue:
each blocker's resolution callback posts a wake-up that serves it again
the same way, and with a ``lock_timeout`` a deadline answers
:class:`~repro.errors.LockTimeout`.  A parked request holds up its own
connection only, whose requests stay strictly ordered.

**Programs.**  ``PREPARE_PROGRAM`` builds a transaction body from a
registered factory (:data:`repro.api.PROGRAM_FACTORIES`) once per server
incarnation; ``CALL`` begins, runs the body and commits / prepares in
one request (``_op_call``).  A body spans many engine operations, so a
``CALL`` that would block is never resumed: a transaction it began, or
joined while that had still done nothing, is restarted at the same
snapshot (``Database.restart``) and the whole program re-run on wake-up.
Any other blocked request is re-run as it stands, which is sound because
it staged nothing; one that did is aborted instead (``_serve``).

**Timestamps** (a cluster router's ``ts`` and ``snapshot_ts``, DESIGN.md
§11 and §12) ride on ``BEGIN``, ``CALL`` and a transaction's first
request; only a transaction begun with one has them in its replies.

A request that carries ``noreply`` (the router's 2PC decisions) is
served in order and answered with nothing; an error it would have got
is counted as ``decisions_refused``.

Robustness contract:

* a client that disconnects mid-transaction has its transaction aborted,
  every row lock released and its connection reaped at once;
* a framing violation (oversized length, non-JSON payload) poisons only
  that connection: best-effort error frame, then close; an exception
  escaping the loop's own work likewise costs at most its connection;
* a request-level failure (unknown op, engine error) is an error response
  and the connection stays usable — engine errors round-trip losslessly
  via their stable ``code`` (:mod:`repro.net.protocol`);
* graceful shutdown stops accepting, drops every connection (aborting
  its transaction) and joins the loop thread, which ends once every
  connection is reaped (``stats()["connections_active"] == 0``).

``max_connections`` bounds concurrent clients; with ``backpressure=True``
(default) excess connections wait in a backlog, not read from, until a
slot frees (STATS ``connections_parked``), with ``backpressure=False``
they are refused with an error frame.
"""

from __future__ import annotations

import heapq
import json
import random
import selectors
import socket
import threading
import time
import traceback
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.api import PROGRAM_FACTORIES
from repro.engine.engine import Database, WaitOn
from repro.engine.session import NoWaitWaiter, Session, WouldBlock
from repro.engine.transaction import Transaction, TxnStatus
from repro.errors import (
    ConnectionClosed,
    DeadlockError,
    LockTimeout,
    ProtocolError,
    ReproError,
    TransactionAborted,
    TransactionStateError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    STATEMENT_OPS,
    FrameDecoder,
    encode_frame,
    error_payload,
)
from repro.sqlmini import PreparedStatement
from repro.sqlmini.ast import Select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.faults import FaultPlan
    from repro.obs import Observability

#: Every server session's waiter: a lock wait parks the request (``_park``).
_NOWAIT = NoWaitWaiter()
#: Read once: an enum member is a class-attribute lookup on every use.
_ACTIVE = TxnStatus.ACTIVE

#: Per-connection receive buffer (bytes); a longer frame takes several reads.
_RECV_BUFFER = 64 * 1024

_READ = selectors.EVENT_READ
_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


#: The fields each op's handler reads by subscript.  A ``KeyError`` naming
#: one the request lacks is a malformed request; any other escaping a
#: handler came from the statement or program it ran.
_REQUIRED_FIELDS: "dict[str, tuple[str, ...]]" = {
    **{op: fields for op, fields, _, _ in STATEMENT_OPS.values()},
    **dict.fromkeys(("PREPARE_2PC", "COMMIT_2PC", "ABORT_2PC"), ("gtid",)),
    "EXEC": ("sql",),  # unless it names a statement id
    "PREPARE_PROGRAM": ("factory", "spec"),
    "CALL": ("pid",),
}


def _statement_handler(verb: str, fields: "tuple[str, ...]", reply: Optional[str]):
    """The handler of one :data:`~repro.net.protocol.STATEMENT_OPS` row:
    the frame's fields go to the session verb by keyword (they are its
    parameter names) and what it returns is the reply field."""

    def handler(server: "DatabaseServer", conn: _ClientConnection, msg: dict) -> dict:
        result = getattr(conn.session, verb)(**{name: msg[name] for name in fields})
        return {} if reply is None else {reply: result}

    return handler


class _Park(NamedTuple):
    """The lock wait of a connection's parked request."""

    txn: Transaction
    wait: WaitOn
    since: float  # ``time.monotonic()``


class _ClientConnection:
    """One accepted socket: its framing state and, once admitted, its
    session.  All of it belongs to the loop thread."""

    def __init__(self, sock: socket.socket, max_frame: int) -> None:
        self.sock = sock
        self.decoder = FrameDecoder(max_frame)
        self.recv = memoryview(bytearray(_RECV_BUFFER))
        self.pending: "deque[dict]" = deque()
        #: Set while the request at the head of ``pending`` waits for a lock.
        self.parked: Optional[_Park] = None
        self.closed = False
        self.events = 0  # what the selector watches the socket for
        #: Response bytes not yet written: a burst being gathered, what a
        #: short ``send`` left, or everything behind a delayed frame
        #: (``net-delay-frame``) — response order must survive all three.
        self.outbox = bytearray()
        self.delayed = False
        self.session: Optional[Session] = None  # until admitted


class DatabaseServer:
    """Host one :class:`Database` behind the length-prefixed JSON protocol."""

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        backpressure: bool = True,
        obs: "Observability | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        autovacuum_interval: Optional[float] = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        if autovacuum_interval is not None and autovacuum_interval <= 0:
            raise ValueError("autovacuum_interval must be positive")
        self.db = db
        self.host = host
        self.port = port  # 0 = ephemeral; rewritten once listening
        self.max_connections = max_connections
        self.backpressure = backpressure
        self.obs = obs
        self.max_frame = max_frame
        #: Seconds between automatic :meth:`Database.vacuum` runs (None
        #: disables).  Long cluster runs use this to bound version-chain
        #: growth without any client issuing VACUUM.
        self.autovacuum_interval = autovacuum_interval
        #: Network-level fault plan (``net-drop-frame`` / ``net-delay-
        #: frame`` / ``conn-reset``); None keeps the response path
        #: byte-identical to the pre-chaos server.
        self.faults = fault_plan
        if obs is not None:
            db.install_observability(obs)
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._thread: Optional[threading.Thread] = None
        self._vacuum_executor = None
        if autovacuum_interval is not None:
            from concurrent.futures import ThreadPoolExecutor

            self._vacuum_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-net-vacuum"
            )
        #: How other threads reach the loop: ``(function, args)`` pairs it
        #: runs when the wake-up socket turns readable (``_post``).
        self._posted: "deque[tuple[Callable, tuple]]" = deque()
        self._wake_recv: Optional[socket.socket] = None
        self._wake_send: Optional[socket.socket] = None
        #: ``(deadline, tie-break, function, args)`` heap; the earliest
        #: deadline is the selector's timeout.
        self._timers: "list[tuple[float, int, Callable, tuple]]" = []
        self._timer_seq = 0
        #: Accepted connections waiting for a slot (``backpressure``).
        self._backlog: "deque[_ClientConnection]" = deque()
        self._connections: dict[int, _ClientConnection] = {}
        self._closing = False
        self._conn_counter = 0
        # Server-side statement cache: (sql, kind) -> (sid, PreparedStatement).
        # Combined with the sqlmini AST cache this makes EXEC parse-free
        # after the first sight of a statement text; the statement id lets
        # clients drop the SQL text from subsequent EXEC frames entirely.
        self._prepared: dict[
            tuple[str, Optional[str]], tuple[int, PreparedStatement]
        ] = {}
        self._prepared_by_id: "list[PreparedStatement]" = []
        # Program registry, same shape: (factory, spec) -> pid, and the
        # bodies by dense index.
        self._program_ids: "dict[tuple[str, str], int]" = {}
        self._programs: "list[Callable]" = []
        # Statement and program ids are namespaced per server *instance*:
        # a client still holding ids from a previous incarnation of this
        # address (crash + restart on the same port) must get a clean
        # "unknown statement id" / "unknown program id" error — never a
        # silent hit on whatever landed on the same dense index in the
        # new registry.
        self._sid_base = random.SystemRandom().randrange(1 << 30)
        # Lifetime counters (kept even without an Observability installed;
        # STATS and the leak assertions read them), written by the loop
        # thread only.
        self._counters = {
            "connections_total": 0,
            "rejected_total": 0,
            "protocol_errors_total": 0,
            "rpcs_total": 0,
            "parked_total": 0,  # requests that waited for a row lock
            "lock_wait_seconds_total": 0.0,  # how long they waited, summed
            "lock_timeouts_total": 0,  # waits ``lock_timeout`` ended
            "loop_wakeups_total": 0,  # returns of the loop's ``select``
            "sessions_opened": 0,
            "sessions_closed": 0,
            "vacuum_runs": 0,
            "vacuum_pruned_total": 0,
            "net_faults_total": 0,
            "decisions_refused": 0,  # one-way requests that failed
        }

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """(Un)install the network fault plan; None restores clean paths."""
        self.faults = plan

    def _note_fault(self, point: str) -> None:
        self._counters["net_faults_total"] += 1
        if self.obs is not None:
            self.obs.fault_injected(point)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def start_in_thread(self) -> "DatabaseServer":
        """Bind the listening socket (``self.port`` is final on return)
        and serve it from a daemon thread.  Pair with :meth:`shutdown`."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server((self.host, self.port))
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ, self._listener)
        self._selector.register(self._wake_recv, _READ, self._wake_recv)
        if self.autovacuum_interval is not None:
            self._call_later(self.autovacuum_interval, self._autovacuum)
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, abort in-flight work, reap
        every connection, end the loop thread and join it."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._post(self._stop)
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError(f"shutdown leaked {len(self._connections)} connections")
        # Closed here, not by the loop: it may run ``_stop`` and end before
        # the ``_post`` above has sent the wake-up that announces it.
        self._wake_recv.close()
        self._wake_send.close()

    # ------------------------------------------------------------------
    # The loop thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        select, timers, posted = self._selector.select, self._timers, self._posted
        listener, wake = self._listener, self._wake_recv
        while self._connections or not self._closing:
            timeout = max(0.0, timers[0][0] - time.monotonic()) if timers else None
            ready = select(timeout)
            self._counters["loop_wakeups_total"] += 1
            for key, mask in ready:
                conn = key.data
                if conn is listener:
                    self._guarded(self._accept, ())
                elif conn is wake:
                    wake.recv(4096)
                else:
                    try:
                        if mask & _READ:
                            self._on_readable(conn)
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                    except Exception:  # a decoder or handler bug costs this one
                        self._contain(conn)
            # Every pass, not only when the wake-up socket reads: what
            # the work above posted (a commit waking a parked request)
            # runs now, and so does a post whose wake-up is still on its
            # way (``shutdown``'s stop may be served before it sends one).
            while posted:
                self._guarded(*posted.popleft())
            while timers and timers[0][0] <= time.monotonic():
                self._guarded(*heapq.heappop(timers)[2:])
        if self._vacuum_executor is not None:
            self._vacuum_executor.shutdown()
        self._selector.close()

    def _guarded(self, function: Callable, args: tuple) -> None:
        try:
            function(*args)
        except Exception:
            self._contain()

    def _contain(self, conn: "_ClientConnection | None" = None) -> None:
        """An exception escaped a piece of the loop's work (the one being
        handled): report it and drop the connection it served, if any.  The
        loop thread is the only one there is; it must outlive every bug."""
        traceback.print_exc()
        if conn is not None:
            self._drop(conn)

    def _stop(self) -> None:
        self._closing = True
        self._selector.unregister(self._listener)
        self._listener.close()
        self._timers.clear()
        for conn in [*self._connections.values(), *self._backlog]:
            self._drop(conn)

    def _call_later(self, delay: float, function: Callable, *args) -> None:
        self._timer_seq += 1
        deadline = time.monotonic() + delay
        heapq.heappush(self._timers, (deadline, self._timer_seq, function, args))

    def _post(self, function: Callable, *args) -> None:
        """Have the loop thread call ``function(*args)`` (any thread)."""
        self._posted.append((function, args))
        try:
            self._wake_send.send(b"\0")
        except BlockingIOError:  # a socketful of wake-ups is already due
            pass

    def _autovacuum(self) -> None:
        """Periodic vacuum: same engine entry point as the VACUUM op, on a
        thread of its own so the (commit-mutex-holding) prune never stalls
        the loop."""
        self._vacuum_executor.submit(self.db.vacuum).add_done_callback(
            partial(self._post, self._vacuumed)
        )

    def _vacuumed(self, prune: "Future[int]") -> None:
        try:
            pruned = prune.result()
        except ReproError:
            return  # crashed / shut down underneath us: the cadence ends
        self._counters["vacuum_runs"] += 1
        self._counters["vacuum_pruned_total"] += pruned
        if not self._closing:
            self._call_later(self.autovacuum_interval, self._autovacuum)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Server-level counters (also served over the wire as STATS)."""
        return {
            "connections_active": len(self._connections),
            "connections_parked": len(self._backlog),
            "active_transactions": len(self.db.active_transactions),
            "prepared_statements": len(self._prepared),
            "prepared_2pc": len(self.db.prepared_gtids),
            "in_doubt_2pc": len(self.db.recovered_in_doubt),
            # Listed so a cluster coordinator can re-deliver decisions.
            "in_doubt_gtids": list(self.db.recovered_in_doubt),
            # Live prepared gtids: the in-doubt resolver uses these to
            # spot orphans whose coordinator died before deciding.
            "prepared_gtids": list(self.db.prepared_gtids),
            "max_connections": self.max_connections,
            "backpressure": self.backpressure,
            # Which engine regime this server hosts, for operators.
            "isolation": self.db.config.isolation.value,
            "aborts_by_reason": dict(self.db.aborts_by_reason),
            **self._counters,
        }

    # ------------------------------------------------------------------
    # Connection admission / reaping (loop thread)
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up first; nothing to serve
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _ClientConnection(sock, self.max_frame)
        if len(self._connections) < self.max_connections:
            self._admit(conn)
        elif self.backpressure:
            # Backlog: not watched for reads until a slot frees, so what
            # the client sends meanwhile waits in the kernel's buffer.
            self._backlog.append(conn)
        else:
            self._counters["rejected_total"] += 1
            if self.obs is not None:
                self.obs.net_connection_rejected()
            limit = f"server at capacity ({self.max_connections} connections)"
            self._hang_up(conn, ConnectionClosed(limit))

    def _admit(self, conn: _ClientConnection) -> None:
        self._conn_counter += 1
        conn.conn_id = self._conn_counter
        conn.session = Session(self.db, _NOWAIT)
        self._connections[conn.conn_id] = conn
        self._counters["connections_total"] += 1
        self._counters["sessions_opened"] += 1
        if self.obs is not None:
            self.obs.net_connection_opened(len(self._connections))
        self._watch(conn, _READ)

    def _watch(self, conn: _ClientConnection, events: int) -> None:
        if conn.events:
            self._selector.modify(conn.sock, events, conn)
        else:
            self._selector.register(conn.sock, events, conn)
        conn.events = events

    def _hang_up(self, conn: _ClientConnection, error: ReproError) -> None:
        """Best-effort error frame, then close."""
        self._deliver(conn, encode_frame(error_payload(error)))
        self._flush(conn)
        self._drop(conn)

    def _drop(self, conn: _ClientConnection) -> None:
        """The peer is gone, or this end hangs up: close the socket (unsent
        outbox bytes go with it), abort the session's transaction — a
        vanished client's locks free at once, and a parked request never
        wakes up to commit for nobody — and reap the connection.
        (Prepared transactions are detached from the session and stay
        for the coordinator's decision.)"""
        if conn.closed:
            return
        conn.closed = True
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        if conn.session is None:
            if conn in self._backlog:
                self._backlog.remove(conn)
            return
        if conn.parked is not None:
            self._unpark(conn, timed_out=False)
        txn = conn.session.txn
        if txn is not None:
            self.db.abort(txn, reason="disconnect")
        # Counted closed before it leaves the list: a ``stats()`` on
        # another thread that sees it gone sees it counted.
        self._counters["sessions_closed"] += 1
        del self._connections[conn.conn_id]
        if self.obs is not None:
            self.obs.net_connection_closed(len(self._connections))
        if self._backlog and not self._closing:  # the slot it freed
            self._admit(self._backlog.popleft())

    def _note_protocol_error(self, kind: str) -> None:
        self._counters["protocol_errors_total"] += 1
        if self.obs is not None:
            self.obs.net_protocol_error(kind)

    # ------------------------------------------------------------------
    # Bytes in, bytes out (loop thread)
    # ------------------------------------------------------------------
    def _on_readable(self, conn: _ClientConnection) -> None:
        try:
            nbytes = conn.sock.recv_into(conn.recv)
        except BlockingIOError:
            return
        except OSError:
            nbytes = 0  # reset by the peer: the same as its EOF
        if not nbytes:
            self._drop(conn)
            return
        decoder = conn.decoder
        fresh = not decoder.buffer  # no frame begun in an earlier read
        try:
            requests = decoder.feed(conn.recv[:nbytes])
        except ProtocolError as exc:
            self._note_protocol_error("framing")
            self._hang_up(conn, exc)
            return
        if (
            len(requests) != 1
            or not fresh
            or decoder.buffer
            or conn.pending
            or conn.outbox
            or self.faults is not None
        ):
            conn.pending.extend(requests)
            self._pump(conn)
            return
        # The read was exactly one whole request, on an idle connection
        # with no fault plan: answered here, its reply sent straight from
        # this frame.  What the kernel does not take waits in the outbox
        # for writability, as ``_flush`` leaves it; a request that parks
        # waits at the head of the queue, as ``_pump`` leaves it.
        request = requests[0]
        response = self._serve(conn, request)
        if response is None:
            conn.pending.append(request)
            return
        if "noreply" in request:  # one-way: served, nothing to send
            return
        data = encode_frame(response)
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop(conn)
            return
        if sent != len(data):
            conn.outbox += memoryview(data)[sent:]
            self._watch(conn, _READ_WRITE)

    def _pump(self, conn: _ClientConnection) -> None:
        """Serve queued requests in order until one parks.

        The responses of a burst of requests (a pipelining client sends
        several frames back-to-back) gather in the outbox and leave in a
        single ``send`` — one syscall, one client wakeup; those ahead of a
        parked request leave now, its own follows them once it is served.
        """
        while conn.pending and conn.parked is None and not conn.closed:
            response = self._serve(conn, conn.pending[0])
            if response is not None:  # None: parked at the head of the queue
                if "noreply" not in conn.pending.popleft():
                    self._deliver(conn, encode_frame(response))
        self._flush(conn)

    def _park(self, conn: _ClientConnection, txn: Transaction, wait: WaitOn) -> None:
        """Hold ``conn``'s head request until a blocker of ``txn``
        resolves or ``lock_timeout`` passes (``_resume``).  The wait-for
        edge stays registered meanwhile, so the deadlock detector sees
        cycles through the parked transaction; closing one here raises
        :class:`DeadlockError` with ``txn`` aborted."""
        self.db.begin_wait(txn, wait)
        park = conn.parked = _Park(txn, wait, time.monotonic())
        self._counters["parked_total"] += 1
        if self.obs is not None:
            self.obs.lock_wait_start(txn, wait)
        timeout = self.db.locks.lock_timeout
        if timeout is not None:
            self._call_later(timeout, self._resume, conn, park, True)
        wake = partial(self._post, self._resume, conn, park, False)
        for blocker in wait.blockers:
            blocker.add_resolution_callback(wake)  # crashes fire it too

    def _unpark(self, conn: _ClientConnection, timed_out: bool) -> None:
        park, conn.parked = conn.parked, None
        waited = time.monotonic() - park.since
        self.db.end_wait(park.txn)
        self._counters["lock_wait_seconds_total"] += waited
        if self.obs is not None:
            self.obs.lock_wait_end(park.txn, park.wait, waited, timed_out)

    def _resume(
        self, conn: _ClientConnection, park: _Park, timed_out: bool, *_blocker
    ) -> None:
        """A blocker of the parked request resolved — serve it again — or
        (``timed_out``) its wait expired: abort and answer
        :class:`LockTimeout`, as ``Session._wait`` does.  A wake-up or
        timer for a request no longer parked does nothing."""
        if conn.parked is not park:
            return
        self._unpark(conn, timed_out)
        try:
            if timed_out:
                txn, wait = park.txn, park.wait
                self.db.abort(txn, reason="lock-timeout")
                self._counters["lock_timeouts_total"] += 1
                expired = LockTimeout(
                    f"txn {txn.txid} ({txn.label}): lock wait exceeded "
                    f"{self.db.locks.lock_timeout}s waiting for "
                    f"{sorted(wait.blocker_ids)}"
                )
                request = conn.pending.popleft()
                response = self._failed(request, expired)
                if "noreply" not in request:
                    self._deliver(conn, encode_frame(response))
            self._pump(conn)
        except Exception:  # a handler bug costs its connection, not the loop
            self._contain(conn)

    def _deliver(self, conn: _ClientConnection, data: bytes) -> None:
        """One frame into the outbox, past the hooks of an installed plan.
        The request has already executed by the time its response gets
        here, so every fault is a lost/late *acknowledgement*, the classic
        2PC ambiguity the client stack must absorb."""
        plan = self.faults
        if plan is not None and not conn.closed:
            if plan.should_fire("conn-reset"):
                self._note_fault("conn-reset")
                self._drop(conn)  # mid-stream cut: nothing more is sent
                return
            if plan.should_fire("net-drop-frame"):
                self._note_fault("net-drop-frame")
                return  # executed, but the client never hears back
            if not conn.delayed and plan.should_fire("net-delay-frame"):
                self._note_fault("net-delay-frame")
                conn.delayed = True
                if conn.events == _READ_WRITE:  # a short send's rest waits too
                    self._watch(conn, _READ)
                self._call_later(
                    plan.magnitude("net-delay-frame") or 0.05, self._release, conn
                )
        conn.outbox += data

    def _release(self, conn: _ClientConnection) -> None:
        conn.delayed = False
        self._flush(conn)

    def _flush(self, conn: _ClientConnection) -> None:
        """Write what the kernel takes of the outbox; watch for
        writability exactly while some of it is left."""
        if conn.closed or conn.delayed or not conn.outbox:
            return
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        del conn.outbox[:sent]
        events = _READ_WRITE if conn.outbox else _READ
        if events != conn.events:
            self._watch(conn, events)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _serve(self, conn: _ClientConnection, message: dict) -> Optional[dict]:
        """Execute one request and build the response — or park it (None).

        A parked request runs again from the top on wake-up, which is
        sound only if the blocked attempt left no staged write behind:
        engine ops stage nothing when they return ``WaitOn`` (reads and
        lock re-acquisition are idempotent on retry), a mini-SQL statement
        stages at most one write as its final effect, and a CALL on an
        untouched transaction restarted it (``_op_call``) — but the
        ``txn.writes`` guard below enforces it rather than trusting the
        grammar: a request that blocked after staging a write (a CALL
        joining a touched transaction can) aborts its transaction.
        """
        op = message.get("op")
        obs = self.obs
        started = obs.now() if obs is not None else 0.0
        session = conn.session
        txn_before = session.txn
        staged = len(txn_before.writes) if txn_before is not None else 0
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                self._note_protocol_error("unknown-op")
                raise ProtocolError(f"unknown operation {op!r}")
            try:
                ts = message.get("ts")  # a router's: checked here, once
                if ts is not None and not (
                    type(ts) is int and type(message.get("snapshot_ts", ts)) is int
                ):
                    raise ProtocolError("a timestamp must be an integer")
                # Piggybacked BEGIN (deferred by the client to save a
                # round trip).  Guarded on in_transaction so the re-run of
                # a parked request does not begin twice.
                label = message.get("begin")
                if label is not None and op != "BEGIN" and not session.in_transaction:
                    session.begin(str(label), ts, message.get("snapshot_ts"))
                response = handler(self, conn, message)
            except KeyError as exc:
                field = exc.args[0] if exc.args else None
                if field not in _REQUIRED_FIELDS.get(op, ()) or field in message:
                    raise
                self._note_protocol_error("missing-field")
                raise ProtocolError(
                    f"request {op} is missing field {field!r}"
                ) from None
            response["ok"] = True
            self._counters["rpcs_total"] += 1
            if obs is not None:
                obs.net_rpc(str(op), obs.now() - started, True)
            return response
        except WouldBlock as blocked:
            txn = session.txn  # active: it was just waiting
            if len(txn.writes) != (staged if txn is txn_before else 0):
                self.db.abort(txn, reason="net-retry-unsafe")
                error: ReproError = TransactionAborted(
                    "statement blocked after staging writes; "
                    "transaction aborted (not retryable in place)"
                )
            else:
                try:
                    self._park(conn, txn, blocked.wait)
                    return None
                except DeadlockError as exc:
                    error = exc
        except ReproError as exc:
            error = exc
        return self._failed(message, error, started)

    def _failed(
        self, message: dict, error: ReproError, started: Optional[float] = None
    ) -> dict:
        """The error response to one request, counted like any RPC
        (``started``: when serving it began on the ``obs`` clock); a
        one-way request's is counted as a refusal and never sent."""
        self._counters["rpcs_total"] += 1
        if "noreply" in message:
            self._counters["decisions_refused"] += 1
        obs = self.obs
        if obs is not None:
            seconds = 0.0 if started is None else obs.now() - started
            obs.net_rpc(str(message.get("op") or "?"), seconds, False)
        return error_payload(error)

    # --- handlers ------------------------------------------------------
    def _op_ping(self, conn: _ClientConnection, msg: dict) -> dict:
        return {"pong": True}

    def _op_stats(self, conn: _ClientConnection, msg: dict) -> dict:
        return {"stats": self.stats()}

    def _op_begin(self, conn: _ClientConnection, msg: dict) -> dict:
        txn = conn.session.begin(
            str(msg.get("label", "")), msg.get("ts"), msg.get("snapshot_ts")
        )
        return {"txid": txn.txid, "snapshot_ts": txn.snapshot_ts}

    def _op_commit(self, conn: _ClientConnection, msg: dict) -> dict:
        session = conn.session
        session.commit()
        txn = session.txn
        return {"commit_ts": txn.commit_ts} if txn.clocked else {}

    def _op_rollback(self, conn: _ClientConnection, msg: dict) -> dict:
        conn.session.rollback()
        return {}

    def _op_vacuum(self, conn: _ClientConnection, msg: dict) -> dict:
        pruned = self.db.vacuum()
        self._counters["vacuum_runs"] += 1
        self._counters["vacuum_pruned_total"] += pruned
        return {"pruned": pruned}

    # --- two-phase commit (coordinator -> participant ops) --------------
    def _op_prepare_2pc(self, conn: _ClientConnection, msg: dict) -> dict:
        """Phase one: vote on this connection's open transaction.

        On a YES the transaction is *detached* from the session: a
        prepared transaction belongs to the coordinator's decision, not
        to the wire it arrived on — the client disconnecting (or the
        session being reused) must not roll it back.  The decision ops
        below address it by gtid and work on any connection.
        """
        gtid = str(msg["gtid"])
        return {"prepared": True, "gtid": gtid, "ts": self._prepare(conn.session, gtid)}

    def _prepare(self, session: Session, gtid: str) -> int:
        """Vote YES on ``session``'s transaction: its prepare timestamp."""
        txn = session.txn
        if txn is None or not txn.is_active:
            raise TransactionStateError("no active transaction to prepare")
        prepare_ts = self.db.prepare_commit(txn, gtid)
        session.txn = None  # survives disconnect; resolved only by gtid
        return prepare_ts

    def _op_commit_2pc(self, conn: _ClientConnection, msg: dict) -> dict:
        self.db.commit_prepared(str(msg["gtid"]), msg.get("ts"))
        return {}

    def _op_abort_2pc(self, conn: _ClientConnection, msg: dict) -> dict:
        self.db.abort_prepared(str(msg["gtid"]))
        return {}

    def _statement(self, sql: str, kind: Optional[str]) -> tuple[int, PreparedStatement]:
        cache_key = (sql, kind)
        entry = self._prepared.get(cache_key)
        if entry is None:
            statement = PreparedStatement(sql, kind=kind)
            entry = (
                self._sid_base + len(self._prepared_by_id),
                statement,
            )
            self._prepared_by_id.append(statement)
            self._prepared[cache_key] = entry
        return entry

    def _resolve_statement(self, msg: dict) -> tuple[int, PreparedStatement]:
        """EXEC statement lookup: by ``sid`` (fast path, no SQL
        text on the wire) or by ``sql`` text (registers and returns the
        sid for the client to cache)."""
        sid = msg.get("sid")
        if sid is not None:
            statements = self._prepared_by_id
            index = sid - self._sid_base if isinstance(sid, int) else -1
            if not 0 <= index < len(statements):
                raise ProtocolError(f"unknown statement id {sid!r}")
            return sid, statements[index]
        kind = msg.get("kind")
        return self._statement(
            str(msg["sql"]), str(kind) if kind is not None else None
        )

    def _op_exec(self, conn: _ClientConnection, msg: dict) -> dict:
        sid, statement = self._resolve_statement(msg)
        params = msg.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("EXEC params must be a JSON object")
        # Echo back only the parameters the statement changed (its
        # ``INTO :var`` bindings): the client merges the delta in place,
        # and unchanged values would merge to themselves anyway.  Only
        # SELECT ... INTO can bind at all, so anything else skips the
        # before-copy and the delta scan (and the empty-field bytes).
        ast = statement.statement
        binds = isinstance(ast, Select) and bool(ast.into)
        before = dict(params) if binds else None
        result = statement.execute(conn.session, params)
        response: dict = {}
        if result.rows:
            response["rows"] = result.rows
        if result.rowcount:
            response["rowcount"] = result.rowcount
        if binds:
            response["params"] = {
                k: v
                for k, v in params.items()
                if k not in before or before[k] != v
            }
        if "sid" not in msg:  # first sight: teach the client the id
            response["sid"] = sid
        return response

    # --- transaction programs ------------------------------------------
    def _op_prepare_program(self, conn: _ClientConnection, msg: dict) -> dict:
        """Build (once per incarnation) the body a factory makes of a
        spec; the id it returns is what CALL frames carry."""
        key = (str(msg["factory"]), str(msg["spec"]))
        pid = self._program_ids.get(key)
        if pid is None:
            factory = PROGRAM_FACTORIES.get(key[0])
            if factory is None:
                raise ProtocolError(f"unknown program factory {key[0]!r}")
            try:
                body = factory(json.loads(key[1]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"factory {key[0]!r} rejected its spec: {exc!r}"
                ) from None
            pid = self._sid_base + len(self._programs)
            self._programs.append(body)
            self._program_ids[key] = pid
        return {"pid": pid}

    def _op_call(self, conn: _ClientConnection, msg: dict) -> dict:
        """One whole transaction: begin (unless one is open on this
        wire), run the program, then commit / prepare / leave open.

        However the call fails, no transaction is left behind.  A blocked
        attempt on a transaction that had done nothing before the call
        (begun by it, or by a bare BEGIN) is undone by restarting the
        transaction at its snapshot — the re-run after the park joins the
        successor and starts the program over, so nothing is applied
        twice and it reads what the attempt read.  One joining a touched
        transaction is parked as it stands (``_serve``).
        """
        pid = msg["pid"]
        index = pid - self._sid_base if isinstance(pid, int) else -1
        if not 0 <= index < len(self._programs):
            raise ProtocolError(f"unknown program id {pid!r}")
        end = msg.get("end", "commit")
        if end != "commit":
            end = str(end)
            if end != "open" and not end.startswith("prepare:"):
                raise ProtocolError(f"CALL cannot end a transaction as {end!r}")
        session = conn.session
        txn = session.txn
        if txn is None or txn.status is not _ACTIVE:
            txn = session.txn = self.db.begin(
                str(msg.get("label", "")), msg.get("ts"), msg.get("snapshot_ts")
            )
            untouched = True
        else:
            untouched = txn.is_untouched
        try:
            try:
                result = self._programs[index](session, msg.get("args") or {})
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"program rejected its arguments: {exc!r}"
                ) from None
            if end == "commit":
                self.db.commit(txn)  # a server session has no commit hook
            elif end != "open":
                self._prepare(session, end.partition(":")[2])
        except WouldBlock:
            if untouched:
                session.txn = self.db.restart(txn, reason="call-would-block")
            raise
        except BaseException:
            if session.in_transaction:
                session.rollback()
            raise
        if txn.clocked:  # a cluster branch: answer its timestamps too
            ts = txn.commit_ts or txn.prepare_ts or txn.snapshot_ts
            return {"result": result, "snapshot_ts": txn.snapshot_ts, "ts": ts}
        return {"result": result}

    _HANDLERS = {
        "PING": _op_ping,
        "STATS": _op_stats,
        "BEGIN": _op_begin,
        **{
            op: _statement_handler(verb, fields, reply)
            for verb, (op, fields, reply, _) in STATEMENT_OPS.items()
        },
        "COMMIT": _op_commit,
        "ROLLBACK": _op_rollback,
        "EXEC": _op_exec,
        "PREPARE_PROGRAM": _op_prepare_program,
        "CALL": _op_call,
        "VACUUM": _op_vacuum,
        "PREPARE_2PC": _op_prepare_2pc,
        "COMMIT_2PC": _op_commit_2pc,
        "ABORT_2PC": _op_abort_2pc,
    }
