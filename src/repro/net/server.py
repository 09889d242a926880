"""``repro.net.server`` — asyncio TCP front end for a :class:`Database`.

Architecture (DESIGN.md §11)
----------------------------

The event loop owns *framing, dispatch and connection lifecycle*.  Every
accepted connection gets

* one engine :class:`~repro.engine.session.Session` (per-connection
  sessions: one transaction at a time, exactly the paper's client model),
* one single-thread executor for the operations that genuinely block.

The server speaks the protocol at the transport level
(:class:`asyncio.BufferedProtocol` + :class:`~repro.net.protocol.FrameDecoder`)
rather than through ``StreamReader`` — request/response round trips are
latency-bound, and skipping the stream/coroutine machinery roughly halves
the per-RPC overhead.  Each connection receives into one reusable buffer:
the plain-``Protocol`` transport allocates 256 KiB per ``recv``, which is
above glibc's mmap threshold — a map, a page fault and an unmap per
request until the process has freed a block that large.

**Inline fast path.**  Engine operations may block (lock waits use
:class:`ThreadedWaiter`), and a blocking call on the loop thread would
deadlock the whole server the moment two clients wait on each other.  But
the engine core is non-blocking by design: an operation that cannot
proceed returns ``WaitOn`` *instead of* applying itself.  So each request
is first attempted inline on the loop thread with a
:class:`~repro.engine.session.NoWaitWaiter`; if it raises
:class:`~repro.engine.session.WouldBlock`, the same request is re-run on
the connection's worker thread with a blocking waiter.  Only contended
operations (and COMMITs that must flush the WAL, which block internally
in the group-commit buffer) pay for the thread hop.  Requests *within*
one connection stay strictly ordered either way.

**Programs.**  ``PREPARE_PROGRAM`` builds a transaction body from a
registered factory (:data:`repro.api.PROGRAM_FACTORIES`) once per server
incarnation; ``CALL`` begins, runs the body and commits / prepares in
one request (``_op_call``).  A body spans many engine operations, so a
``CALL`` that would block is never resumed: its transaction — begun by
the call, or joined while it had still done nothing — is restarted at
the same snapshot (``Database.restart``) and the whole program re-run on
the worker thread; a ``CALL`` joining a transaction that has already
touched anything goes to the worker thread directly.

Robustness contract:

* a client that disconnects mid-transaction has its transaction aborted
  and every row lock / stripe released before the connection is reaped;
* a framing violation (oversized length, non-JSON payload) poisons only
  that connection: best-effort error frame, then close;
* a request-level failure (unknown op, engine error) is an error response
  and the connection stays usable — engine errors round-trip losslessly
  via their stable ``code`` (:mod:`repro.net.protocol`);
* graceful shutdown stops accepting, aborts every in-flight transaction
  (which also wakes any lock-waiting worker), drains the handlers and
  asserts nothing leaked (``stats()["connections_active"] == 0``).

``max_connections`` bounds concurrent clients; with ``backpressure=True``
(default) excess connections are parked (reads paused) until a slot
frees, with ``backpressure=False`` they are refused with an error frame.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional

from repro.api import PROGRAM_FACTORIES
from repro.engine.engine import Database
from repro.engine.session import NoWaitWaiter, Session, WouldBlock
from repro.errors import (
    ConnectionClosed,
    LockNotAvailable,
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
    from repro.faults import FaultPlan
    from repro.obs import Observability

#: Shared stateless waiter for the inline fast path (see ``_serve``).
_NOWAIT = NoWaitWaiter()

#: Per-connection receive buffer (bytes); a longer frame takes several reads.
_RECV_BUFFER = 64 * 1024


class _MissingField(KeyError):
    """A handler read a request field the client did not send."""


class _Request(dict):
    """A decoded request as its handler sees it, so that a missing field
    cannot be confused with a ``KeyError`` escaping the statement or
    program the request runs."""

    def __missing__(self, field: str):
        raise _MissingField(field)


def _statement_handler(verb: str, fields: "tuple[str, ...]", reply: Optional[str]):
    """The handler of one :data:`~repro.net.protocol.STATEMENT_OPS` row:
    the frame's fields go to the session verb by keyword (they are its
    parameter names) and what it returns is the reply field."""

    def handler(server: "DatabaseServer", conn: _ClientConnection, msg: dict) -> dict:
        result = getattr(conn.session, verb)(**{name: msg[name] for name in fields})
        return {} if reply is None else {reply: result}

    return handler


class _ClientConnection:
    """Per-connection server state."""

    def __init__(self, conn_id: int, session: Session) -> None:
        self.conn_id = conn_id
        self.session = session  # one in-flight operation at a time
        self.blocking_waiter = session.waiter
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-net-conn-{conn_id}"
        )
        #: Lifetime counts made on this connection's worker thread, their
        #: only writer (the loop thread counts in the server's own dict):
        #: ``stats()`` adds them up, reaping folds them in.
        self.worker_counts: "Counter[str]" = Counter()
        #: Where the request being served counts — set by ``_serve``.
        self.counts: "dict[str, int]" = self.worker_counts


class _ServerProtocol(asyncio.BufferedProtocol):
    """One accepted socket: framing, ordering, admission."""

    def __init__(self, server: "DatabaseServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder(server.max_frame)
        self._recv = memoryview(bytearray(_RECV_BUFFER))
        self.pending: "deque[dict]" = deque()
        self.conn: Optional[_ClientConnection] = None
        self.busy = False  # a blocking request is on the worker thread
        self.closed = False
        #: Responses parked behind a delayed frame (``net-delay-frame``):
        #: per-connection response order must survive the delay, so
        #: everything queued after a held frame waits with it.
        self._outbox: "list[bytes]" = []
        self._delaying = False

    # --- asyncio callbacks (loop thread) -------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._on_connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        if self.closed:
            return
        try:
            messages = self.decoder.feed(bytes(self._recv[:nbytes]))
        except ProtocolError as exc:
            self.server._note_protocol_error("framing")
            self._send(error_payload(exc))
            self.kill()
            return
        self.pending.extend(messages)
        self.pump()

    def eof_received(self) -> bool:
        return False  # close the transport; connection_lost follows

    def connection_lost(self, exc) -> None:
        self.closed = True
        self.server._on_connection_lost(self)

    # --- helpers -------------------------------------------------------
    def _send(self, message: dict) -> None:
        if self.server.faults is not None:
            self._deliver(encode_frame(message))
            return
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(encode_frame(message))

    def _send_raw(self, data: bytes) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(data)

    def _deliver(self, data: bytes) -> None:
        """Outbound response with fault hooks (loop thread only).

        Consulted per response frame *only when a plan is installed* —
        the no-plan path batches raw writes exactly as before.  The
        request has already executed by the time its response reaches
        this point, so every fault here is a lost/late *acknowledgement*,
        the classic 2PC ambiguity the client stack must absorb.
        """
        if self.transport is None or self.transport.is_closing():
            return
        plan = self.server.faults
        if plan is not None:
            if plan.should_fire("conn-reset"):
                self.server._note_fault("conn-reset")
                self.closed = True
                self.transport.abort()  # RST, not FIN: mid-stream cut
                return
            if plan.should_fire("net-drop-frame"):
                self.server._note_fault("net-drop-frame")
                return  # executed, but the client never hears back
            if not self._delaying and plan.should_fire("net-delay-frame"):
                self.server._note_fault("net-delay-frame")
                self._delaying = True
                delay = plan.magnitude("net-delay-frame") or 0.05
                asyncio.get_running_loop().call_later(delay, self._flush_outbox)
        if self._delaying:
            self._outbox.append(data)
            return
        self.transport.write(data)

    def _flush_outbox(self) -> None:
        self._delaying = False
        out, self._outbox = self._outbox, []
        if out and self.transport is not None and not self.transport.is_closing():
            self.transport.write(b"".join(out))

    def kill(self) -> None:
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    def pump(self) -> None:
        """Serve queued requests in order; synchronous while they stay
        inline, parking on the worker thread when one would block.

        Responses for a burst of inline requests (a pipelining client
        sends several frames back-to-back) are batched into a single
        ``transport.write`` — one syscall, one client wakeup.
        """
        server = self.server
        out: "list[bytes]" = []
        while not self.busy and self.pending and not self.closed:
            if self.conn is None:
                break  # not admitted yet (backpressure parking)
            message = self.pending.popleft()
            if server._can_inline(self.conn, message):
                try:
                    response = encode_frame(
                        server._serve(self.conn, message, False)
                    )
                    if server.faults is not None:
                        # Per-frame fault consultation; batching would
                        # make one drop/delay decision span a burst.
                        self._deliver(response)
                    else:
                        out.append(response)
                    continue
                except WouldBlock:
                    pass
            # The blocked request's response must follow the inline ones:
            # flush them before handing the message to the worker thread.
            if out:
                self._send_raw(b"".join(out))
                out = []
            self.busy = True
            server._counters["worker_dispatches_total"] += 1
            server._track(asyncio.ensure_future(self._run_blocking(message)))
        if out:
            self._send_raw(b"".join(out))

    async def _run_blocking(self, message: dict) -> None:
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self.conn.executor, self.server._serve, self.conn, message, True
            )
            self._send(response)
        finally:
            self.busy = False
            self.pump()


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
        self._autovacuum_task: "asyncio.Task | None" = None
        if obs is not None:
            db.install_observability(obs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._protocols: "set[_ServerProtocol]" = set()
        self._parked: "deque[_ServerProtocol]" = deque()
        self._connections: dict[int, _ClientConnection] = {}
        self._tasks: "set[asyncio.Task]" = set()
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
        self._prepared_lock = threading.Lock()
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
        # STATS and the leak assertions read them).  Written by the loop
        # thread only; what worker threads count is in each connection's
        # ``worker_counts`` until ``_cleanup`` folds it in here.
        self._reap_lock = threading.Lock()
        self._counters = {
            "connections_total": 0,
            "rejected_total": 0,
            "protocol_errors_total": 0,
            "rpcs_total": 0,
            "worker_dispatches_total": 0,  # requests handed to a worker thread
            "sessions_opened": 0,
            "sessions_closed": 0,
            "vacuum_runs": 0,
            "vacuum_pruned_total": 0,
            "net_faults_total": 0,
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

    async def start(self) -> "DatabaseServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _ServerProtocol(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.autovacuum_interval is not None:
            self._autovacuum_task = self._loop.create_task(
                self._autovacuum_loop()
            )
        return self

    async def _autovacuum_loop(self) -> None:
        """Periodic vacuum: same engine entry point as the VACUUM op.

        Runs on the connection-agnostic default executor so the (commit-
        mutex-holding) prune never stalls the event loop.  A crashed
        database ends the loop; any other engine error is counted and the
        loop keeps its cadence.
        """
        assert self.autovacuum_interval is not None
        loop = asyncio.get_running_loop()
        while not self._closing:
            await asyncio.sleep(self.autovacuum_interval)
            if self._closing:
                return
            try:
                pruned = await loop.run_in_executor(None, self.db.vacuum)
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except ReproError:
                return  # crashed / shut down underneath us
            self._counters["vacuum_runs"] += 1
            self._counters["vacuum_pruned_total"] += pruned

    async def stop(self) -> None:
        """Graceful shutdown: drain connections, abort in-flight work."""
        self._closing = True
        if self._autovacuum_task is not None:
            self._autovacuum_task.cancel()
            try:
                await self._autovacuum_task
            except asyncio.CancelledError:
                pass
            self._autovacuum_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Closing the transports EOFs every client; aborting every active
        # transaction wakes any worker blocked in a lock wait (its
        # blockers resolve), so no handler can be stuck past this point.
        for proto in list(self._protocols):
            proto.kill()
        for txn in self.db.active_transactions:
            self.db.abort(txn, reason="shutdown")
        for _ in range(600):  # cleanup tasks spawn from connection_lost
            if not self._tasks and not self._connections:
                break
            if self._tasks:
                await asyncio.wait(list(self._tasks), timeout=1.0)
            else:
                await asyncio.sleep(0.05)
        leaked = len(self._connections)
        if leaked:  # pragma: no cover - defensive
            raise RuntimeError(f"shutdown leaked {leaked} connection(s)")

    # --- threaded convenience wrappers (tests, benchmarks, CLI) --------
    def start_in_thread(self) -> "DatabaseServer":
        """Run the server on a private event loop in a daemon thread.

        Returns once the listening socket is bound (``self.port`` is
        final).  Pair with :meth:`shutdown`.
        """
        if self._thread is not None:
            raise RuntimeError("server already running in a thread")
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - bind errors
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-net-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        if self._thread is None or self._loop is None:
            return
        loop = self._loop
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        future.result(timeout=timeout)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Server-level counters (also served over the wire as STATS)."""
        with self._reap_lock:
            counters = Counter(self._counters)
            for conn in list(self._connections.values()):
                counters.update(conn.worker_counts)
        return {
            "connections_active": len(self._connections),
            "connections_parked": len(self._parked),
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
            **counters,
        }

    # ------------------------------------------------------------------
    # Connection admission / reaping (loop thread)
    # ------------------------------------------------------------------
    def _on_connection_made(self, proto: _ServerProtocol) -> None:
        if self._closing:
            proto.kill()
            return
        self._protocols.add(proto)
        if len(self._connections) < self.max_connections:
            self._admit(proto)
        elif self.backpressure:
            # Park: stop reading until a slot frees.
            proto.transport.pause_reading()
            self._parked.append(proto)
        else:
            self._counters["rejected_total"] += 1
            if self.obs is not None:
                self.obs.net_connection_rejected()
            proto._send(
                error_payload(
                    ConnectionClosed(
                        f"server at capacity "
                        f"({self.max_connections} connections)"
                    )
                )
            )
            proto.kill()

    def _admit(self, proto: _ServerProtocol) -> None:
        self._conn_counter += 1
        conn = _ClientConnection(self._conn_counter, Session(self.db))
        proto.conn = conn
        self._connections[conn.conn_id] = conn
        self._counters["connections_total"] += 1
        self._counters["sessions_opened"] += 1
        if self.obs is not None:
            self.obs.net_connection_opened(len(self._connections))
        proto.pump()  # frames may have queued while parked

    def _on_connection_lost(self, proto: _ServerProtocol) -> None:
        self._protocols.discard(proto)
        if proto.conn is None:
            try:
                self._parked.remove(proto)
            except ValueError:
                pass
            return
        # Abort now rather than in ``_cleanup``, which queues behind a
        # request still blocked on the worker thread: a vanished client's
        # locks free at once, and a blocked CALL cannot wake up later and
        # commit for nobody.  (Prepared transactions are detached from
        # the session and stay for the coordinator's decision.)
        txn = proto.conn.session.txn
        if txn is not None:
            self.db.abort(txn, reason="disconnect")
        self._track(asyncio.ensure_future(self._cleanup(proto.conn)))

    async def _cleanup(self, conn: _ClientConnection) -> None:
        """Reap one connection: abort its transaction, free its slot."""
        loop = asyncio.get_running_loop()
        try:
            # Run on the connection's executor so it serializes after any
            # in-flight statement of the same session.
            await loop.run_in_executor(conn.executor, conn.session.close)
        except Exception:  # pragma: no cover - close is best-effort
            pass
        conn.executor.shutdown(wait=False)
        # The worker thread is done (close ran last on it), so its tally
        # is final; the lock keeps a stats() on another thread from seeing
        # the connection both listed and folded in.
        with self._reap_lock:
            self._connections.pop(conn.conn_id, None)
            for name, count in conn.worker_counts.items():
                self._counters[name] += count
        self._counters["sessions_closed"] += 1
        if self.obs is not None:
            self.obs.net_connection_closed(len(self._connections))
        while self._parked and len(self._connections) < self.max_connections:
            waiter = self._parked.popleft()
            if waiter.closed:
                continue
            self._admit(waiter)
            waiter.transport.resume_reading()

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _note_protocol_error(
        self, kind: str, counts: "dict[str, int] | None" = None
    ) -> None:
        counts = self._counters if counts is None else counts
        counts["protocol_errors_total"] += 1
        if self.obs is not None:
            self.obs.net_protocol_error(kind)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _can_inline(self, conn: _ClientConnection, message: dict) -> bool:
        """Whether this request may be *attempted* on the loop thread.

        Single engine operations are WouldBlock-safe: the non-blocking
        core returns ``WaitOn`` *instead of* applying the operation, so a
        retry on the worker thread re-runs it from scratch.  COMMIT never
        returns ``WaitOn``; its only internal blocking is the group-commit
        flush mutex (short, in-memory — the "leader" drains every staged
        record itself, no condition wait), so it is loop-safe too.  EXEC
        spans several engine operations; ``_serve`` guards its retry
        safety explicitly (see there).  A CALL undoes a blocked attempt
        by restarting its transaction at the same snapshot (``_op_call``),
        which loses nothing only if the transaction had done nothing
        before the call: begun by it, or by the bare BEGIN the cluster
        router sends inside its snapshot window.  A CALL joining a
        transaction that has touched anything is the one request that
        skips the inline attempt.
        """
        if message.get("op") != "CALL":
            return True
        txn = conn.session.txn
        return txn is None or not txn.is_active or txn.is_untouched

    def _serve(self, conn: _ClientConnection, message: dict, blocking: bool) -> dict:
        """Execute one request (loop thread when ``blocking`` is False,
        the connection's worker thread when True) and build the response.

        A :class:`WouldBlock` escape from the inline attempt is *not* an
        RPC outcome — it propagates to the caller, which re-dispatches the
        same message on the worker thread with the blocking waiter.  That
        re-dispatch is sound only if the aborted attempt left no staged
        write behind: engine ops stage nothing when they return ``WaitOn``
        (reads and lock re-acquisition are idempotent on retry), and a
        mini-SQL statement stages at most one write as its final effect —
        but the ``txn.writes`` guard below enforces it rather than trusting
        the statement grammar.
        """
        op = message.get("op")
        obs = self.obs
        started = obs.now() if obs is not None else 0.0
        session = conn.session
        session.waiter = conn.blocking_waiter if blocking else _NOWAIT
        # One writer per dict keeps ``+= 1`` exact without a lock: the loop
        # thread owns the server's counters, each worker thread its
        # connection's tally.
        counts = conn.counts = (
            conn.worker_counts if blocking else self._counters
        )
        txn_before = session.txn
        writes_before = (
            len(txn_before.writes)
            if txn_before is not None and txn_before.is_active
            else 0
        )
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                self._note_protocol_error("unknown-op", counts)
                raise ProtocolError(f"unknown operation {op!r}")
            try:
                # Piggybacked BEGIN (deferred by the client to save a
                # round trip).  Guarded on in_transaction so a WouldBlock
                # re-dispatch does not begin twice.
                label = message.get("begin")
                if label is not None and op != "BEGIN" and not session.in_transaction:
                    session.begin(str(label))
                response = handler(self, conn, _Request(message))
            except _MissingField as exc:
                self._note_protocol_error("missing-field", counts)
                raise ProtocolError(
                    f"request {op} is missing field {exc.args[0]!r}"
                ) from None
            response["ok"] = True
            counts["rpcs_total"] += 1
            if obs is not None:
                obs.net_rpc(str(op), obs.now() - started, True)
            return response
        except WouldBlock:
            # Escalate to the worker thread; not an RPC outcome.  Only
            # sound when the attempt staged nothing (see docstring) — no
            # statement of the current grammar can, and a CALL arrives
            # here with the fresh transaction ``_op_call`` restarted it
            # into — but abort rather than risk double-applying a
            # partially run statement.
            txn_now = session.txn
            if (
                txn_now is not None
                and txn_now.is_active
                and len(txn_now.writes) != writes_before
            ):
                self.db.abort(txn_now, reason="net-retry-unsafe")
                counts["rpcs_total"] += 1
                if obs is not None:
                    obs.net_rpc(str(op or "?"), obs.now() - started, False)
                return error_payload(
                    TransactionAborted(
                        "statement blocked after staging writes; "
                        "transaction aborted (not retryable in place)"
                    )
                )
            raise
        except ReproError as exc:
            counts["rpcs_total"] += 1
            if obs is not None:
                obs.net_rpc(str(op or "?"), obs.now() - started, False)
            return error_payload(exc)

    # --- handlers ------------------------------------------------------
    def _op_ping(self, conn: _ClientConnection, msg: dict) -> dict:
        return {"pong": True}

    def _op_stats(self, conn: _ClientConnection, msg: dict) -> dict:
        return {"stats": self.stats()}

    def _op_begin(self, conn: _ClientConnection, msg: dict) -> dict:
        txn = conn.session.begin(str(msg.get("label", "")))
        return {"txid": txn.txid, "snapshot_ts": txn.snapshot_ts}

    def _op_commit(self, conn: _ClientConnection, msg: dict) -> dict:
        conn.session.commit()
        return {}

    def _op_rollback(self, conn: _ClientConnection, msg: dict) -> dict:
        conn.session.rollback()
        return {}

    def _op_vacuum(self, conn: _ClientConnection, msg: dict) -> dict:
        pruned = self.db.vacuum()
        conn.counts["vacuum_runs"] += 1
        conn.counts["vacuum_pruned_total"] += pruned
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
        self._prepare(conn.session, gtid)
        return {"prepared": True, "gtid": gtid}

    def _prepare(self, session: Session, gtid: str) -> None:
        txn = session.txn
        if txn is None or not txn.is_active:
            raise TransactionStateError("no active transaction to prepare")
        self.db.prepare_commit(txn, gtid)
        session.txn = None  # survives disconnect; resolved only by gtid

    def _op_commit_2pc(self, conn: _ClientConnection, msg: dict) -> dict:
        commit_ts = self.db.commit_prepared(str(msg["gtid"]))
        return {"commit_ts": commit_ts}

    def _op_abort_2pc(self, conn: _ClientConnection, msg: dict) -> dict:
        self.db.abort_prepared(str(msg["gtid"]))
        return {}

    def _statement(self, sql: str, kind: Optional[str]) -> tuple[int, PreparedStatement]:
        cache_key = (sql, kind)
        with self._prepared_lock:
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
        with self._prepared_lock:
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

        However the call fails, no transaction is left behind.  A
        blocked inline attempt (``_can_inline``: the transaction had done
        nothing before the call) is undone by restarting the transaction
        at its snapshot — the worker-thread re-run joins the successor
        and starts the program over, so nothing is applied twice and it
        reads what the attempt read — or, with ``nowait``, reported as
        :class:`LockNotAvailable` instead of waited for.
        """
        pid = msg["pid"]
        index = pid - self._sid_base if isinstance(pid, int) else -1
        if not 0 <= index < len(self._programs):
            raise ProtocolError(f"unknown program id {pid!r}")
        end = str(msg.get("end", "commit"))
        if end not in ("commit", "open") and not end.startswith("prepare:"):
            raise ProtocolError(f"CALL cannot end a transaction as {end!r}")
        session = conn.session
        nowait = bool(msg.get("nowait"))
        if not session.in_transaction:
            session.begin(str(msg.get("label", "")))
        try:
            if nowait and not session.txn.is_untouched:
                raise ProtocolError(
                    "CALL nowait cannot join a transaction that has "
                    "already read or written"
                )
            try:
                result = self._programs[index](session, msg.get("args") or {})
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"program rejected its arguments: {exc!r}"
                ) from None
            if end == "commit":
                session.commit()
            elif end != "open":
                self._prepare(session, end.partition(":")[2])
        except WouldBlock:
            if nowait:
                self.db.abort(session.txn, reason="call-would-block")
                raise LockNotAvailable(
                    "a row lock the program needs is held"
                ) from None
            session.txn = self.db.restart(session.txn, reason="call-would-block")
            raise
        except BaseException:
            if session.in_transaction:
                session.rollback()
            raise
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
