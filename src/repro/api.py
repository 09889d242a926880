"""``repro.api`` — the unified client API facade (DESIGN.md §11).

One entry point, two backends::

    import repro

    conn = repro.connect("local://", schemas=schemas, isolation="si")
    with conn.transaction("deposit") as txn:
        row = txn.select("Checking", 1)
        txn.update("Checking", 1, {"Balance": row["Balance"] + 10})
    # committed on clean exit, rolled back on exception

    conn = repro.connect("tcp://127.0.0.1:7654")   # same surface, over TCP

The facade exists because the paper's interesting costs surface at the
boundary of a *networked* multi-client server: one blessed ``Connection``
surface lets the workload drivers and the SmallBank programs run
unmodified against either the in-process engine or a
:class:`repro.net.DatabaseServer`, so over-the-wire and in-process runs
are directly comparable.

Session contract
----------------

``Connection.session()`` returns a *session*: an object with the
statement surface of :class:`repro.engine.session.Session` (``begin`` /
``select`` / ``select_for_update`` / ``lookup_unique`` / ``scan`` /
``update`` / ``identity_update`` / ``write`` / ``insert`` / ``delete`` /
``commit`` / ``rollback`` / ``close`` / ``in_transaction``).  The verbs
have two implementations: :class:`~repro.engine.session.Session`, where
the rows are (``local://`` hands out real engine sessions), and
:class:`repro.net.client.RemoteVerbs`, where requests are sent from —
inherited by the ``tcp://`` and ``cluster://`` sessions (DESIGN.md §11
says why the two are not one).  Prepared mini-SQL statements
(:class:`repro.sqlmini.PreparedStatement`) execute against both — the
network session advertises ``execute_prepared`` and planning moves
server-side.  The ``tcp://`` and ``cluster://`` sessions additionally
offer ``call_program(program, args, label)``: a whole transaction — a
:class:`Program` the server builds from :data:`PROGRAM_FACTORIES` — run
next to the engine in one round trip (DESIGN.md §11.5, §12.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.engine.config import EngineConfig
from repro.engine.engine import Database
from repro.engine.session import Session
from repro.engine.storage import TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids workload cycle)
    from repro.obs import Observability

#: ``isolation=`` shorthand accepted by :func:`connect`.
ISOLATION_CONFIGS = {
    "si": EngineConfig.postgres,
    "postgres": EngineConfig.postgres,
    "commercial": EngineConfig.commercial,
    "s2pl": EngineConfig.s2pl,
    "ssi": EngineConfig.ssi,
}


@dataclass(frozen=True)
class Program:
    """A whole transaction the backend may run next to the engine.

    ``factory`` names an entry of :data:`PROGRAM_FACTORIES` on the server
    and ``spec`` is the JSON text handed to it; together they identify
    the body, and ``tcp://`` reads nothing else.  ``route`` lists the
    arguments that carry Account names, from which ``cluster://`` finds
    the owning shards.  When those are two shards the router runs
    ``parts`` instead: two programs, each routed by its own single
    argument, the second receiving the first's result as ``carry``.
    """

    factory: str
    spec: str
    route: "tuple[str, ...]" = ()
    parts: "tuple[Program, ...]" = ()


#: ``factory name -> factory(spec) -> body(session, args)``: what a server
#: can build on ``PREPARE_PROGRAM``.  Applications register here at import
#: (:mod:`repro.smallbank.transactions` does); the wire layer only looks up.
PROGRAM_FACTORIES: "dict[str, Callable[[object], Callable]]" = {}


@runtime_checkable
class SessionLike(Protocol):
    """Duck type both backends' sessions satisfy (see module docstring)."""

    def begin(self, label: str = ""): ...
    def commit(self) -> None: ...
    def rollback(self) -> None: ...
    def close(self) -> None: ...
    @property
    def in_transaction(self) -> bool: ...


class TransactionContext:
    """``with conn.transaction() as txn:`` — commit on exit, rollback on error.

    ``txn`` is the backend's session with a transaction already begun.  A
    body that ends the transaction itself (e.g. a business-rule
    ``rollback()``) is respected: the exit handler only commits/rolls back
    while the transaction is still active.
    """

    def __init__(self, connection: "Connection", label: str = "") -> None:
        self._connection = connection
        self._label = label
        self._session: Optional[SessionLike] = None

    def __enter__(self) -> SessionLike:
        session = self._connection.session()
        try:
            session.begin(self._label)
        except BaseException:
            session.close()
            raise
        self._session = session
        return session

    def __exit__(self, exc_type, exc, tb) -> bool:
        session = self._session
        self._session = None
        assert session is not None
        try:
            if session.in_transaction:
                if exc_type is None:
                    session.commit()
                else:
                    session.rollback()
        finally:
            session.close()
        return False


class Connection:
    """A client's handle on one database backend (local or network).

    Subclasses implement :meth:`session`, :meth:`ping`, :meth:`stats` and
    :meth:`close`; everything else is shared.  The facade never retries:
    retry semantics belong to the closed-loop driver protocol (see
    :mod:`repro.workload.retry`).
    """

    url: str = ""

    def session(self) -> SessionLike:
        raise NotImplementedError

    def transaction(self, label: str = "") -> TransactionContext:
        return TransactionContext(self, label)

    def ping(self) -> bool:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def vacuum(self) -> int:
        """Prune version-chain history; returns the versions dropped.

        Every backend exposes the engine's :meth:`Database.vacuum`
        maintenance entry point: locally it is a direct call, the network
        backend sends a ``VACUUM`` op, and the cluster backend fans out to
        every shard and sums.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.url!r}>"


class LocalConnection(Connection):
    """The in-process backend: sessions straight onto a :class:`Database`.

    Deliberately thin — an in-process session is *exactly* an engine
    ``Session(db)``, so pre-facade behaviour (and every measured figure)
    is preserved bit-for-bit.
    """

    def __init__(
        self,
        database: Database,
        *,
        obs: "Observability | None" = None,
        url: str = "local://",
    ) -> None:
        self.db = database
        self.url = url
        if obs is not None:
            database.install_observability(obs)

    def session(self) -> Session:
        return Session(self.db)

    def ping(self) -> bool:
        return not self.db.is_crashed

    def stats(self) -> dict:
        return {
            "backend": "local",
            "active_transactions": len(self.db.active_transactions),
            "clock": self.db.clock.last,
            "crashed": self.db.is_crashed,
        }

    def vacuum(self) -> int:
        return self.db.vacuum()

    def close(self) -> None:
        """Nothing to release: the database outlives its connections."""


def _resolve_config(isolation: "str | EngineConfig | None") -> EngineConfig:
    if isolation is None:
        return EngineConfig.postgres()
    if isinstance(isolation, EngineConfig):
        return isolation
    try:
        return ISOLATION_CONFIGS[isolation]()
    except KeyError:
        raise ValueError(
            f"unknown isolation {isolation!r}; expected one of "
            f"{sorted(ISOLATION_CONFIGS)} or an EngineConfig"
        ) from None


def connect(
    url: str = "local://",
    *,
    database: Optional[Database] = None,
    schemas: Optional[Iterable[TableSchema]] = None,
    isolation: "str | EngineConfig | None" = None,
    obs: "Observability | None" = None,
    pool_size: int = 8,
    timeout: Optional[float] = 10.0,
) -> Connection:
    """Open a connection to a repro database.

    Parameters
    ----------
    url:
        ``local://`` for the in-process engine, ``tcp://host:port`` for a
        running :class:`repro.net.DatabaseServer`, or
        ``cluster://host:port,host:port[,...]`` for a sharded deployment
        fronted by the :mod:`repro.cluster` router (one ``host:port`` per
        shard, in shard order).
    database / schemas / isolation:
        Local backend only.  Pass an existing :class:`Database` *or* table
        ``schemas`` plus an ``isolation`` (``"si"`` / ``"commercial"`` /
        ``"s2pl"`` / ``"ssi"``, or a full :class:`EngineConfig`) to build a
        fresh one.  The network backend rejects all three — the *server*
        owns its engine configuration.
    obs:
        Local: installed on the database.  Network: used for client-side
        instrumentation (the server has its own bundle).
    pool_size / timeout:
        Network backend: wire-connection pool bound and socket timeout.
    """
    scheme, _, rest = url.partition("://")
    if scheme == "local":
        if database is not None and isolation is not None:
            raise ValueError(
                "pass either an existing database or isolation, not both "
                "(the database already carries its EngineConfig)"
            )
        if database is None:
            if schemas is None:
                raise ValueError(
                    "local:// needs database=... or schemas=... to build one"
                )
            database = Database(list(schemas), _resolve_config(isolation))
        return LocalConnection(database, obs=obs, url=url)
    if scheme == "tcp":
        if database is not None or schemas is not None or isolation is not None:
            raise ValueError(
                "tcp:// connects to a running server; database/schemas/"
                "isolation are server-side configuration"
            )
        host, _, port_text = rest.partition(":")
        if not host or not port_text:
            raise ValueError(f"tcp URL must be tcp://host:port, got {url!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"invalid port in {url!r}") from None
        from repro.net.client import NetworkConnection

        return NetworkConnection(
            host,
            port,
            obs=obs,
            pool_size=pool_size,
            timeout=timeout,
            url=url,
        )
    if scheme == "cluster":
        if database is not None or schemas is not None or isolation is not None:
            raise ValueError(
                "cluster:// connects to running shard servers; database/"
                "schemas/isolation are server-side configuration"
            )
        addresses: list[tuple[str, int]] = []
        for part in rest.split(","):
            host, _, port_text = part.strip().partition(":")
            if not host or not port_text:
                raise ValueError(
                    f"cluster URL must be cluster://host:port[,host:port...],"
                    f" got {url!r}"
                )
            try:
                addresses.append((host, int(port_text)))
            except ValueError:
                raise ValueError(f"invalid port in {url!r}") from None
        from repro.cluster.router import ClusterConnection

        return ClusterConnection(
            addresses,
            obs=obs,
            pool_size=pool_size,
            timeout=timeout,
            url=url,
        )
    raise ValueError(
        f"unsupported URL scheme {scheme!r} in {url!r}; "
        "expected local://, tcp://host:port or cluster://host:port,..."
    )


__all__ = [
    "Connection",
    "ISOLATION_CONFIGS",
    "LocalConnection",
    "PROGRAM_FACTORIES",
    "Program",
    "SessionLike",
    "TransactionContext",
    "connect",
]
