"""Executable SmallBank transaction programs (paper Section III-B).

The bodies are written with :mod:`repro.sqlmini` prepared statements so
they match the SQL the paper prints (Program 1).  A
:class:`SmallBankTransactions` instance is parameterized by the list of
:class:`~repro.core.specs.Modification` records produced by the strategy
transforms — the *same* records that rewrite the symbolic specs also
rewrite the executable programs:

* ``materialize`` on program P keyed by ``x`` → P additionally executes
  ``UPDATE Conflict SET Value = Value + 1 WHERE Id = :x``;
* ``promote-upd`` on table T keyed by ``x`` → P additionally executes the
  identity write ``UPDATE T SET Balance = Balance WHERE CustomerId = :x``;
* ``promote-sfu`` on table T keyed by ``x`` → P's read of T[x] becomes
  ``SELECT ... FOR UPDATE``.

Programs signal business-rule aborts (unknown customer, negative deposit,
overdrawn savings) by rolling the session back and raising
:class:`~repro.errors.ApplicationRollback` — these are *not* concurrency
aborts and the workload driver counts them separately.

Over ``tcp://`` and ``cluster://`` :meth:`SmallBankTransactions.run` ships
the whole transaction as one program call (DESIGN.md §11.5): the server
rebuilds these same bodies from the modification list (the ``smallbank``
entry of :data:`repro.api.PROGRAM_FACTORIES`) and runs them next to the
engine.  A cross-shard Amalgamate runs as its two halves,
:data:`AMALGAMATE_DEBIT` and :data:`AMALGAMATE_CREDIT`.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Callable, Iterable, Mapping

from repro.api import PROGRAM_FACTORIES, Program
from repro.core.specs import Modification
from repro.engine.session import Session
from repro.errors import ApplicationRollback
from repro.smallbank import programs as names
from repro.smallbank.schema import CHECKING, CONFLICT, SAVING
from repro.sqlmini import Call, PreparedStatement

# ----------------------------------------------------------------------
# Prepared statements (parsed once at import)
# ----------------------------------------------------------------------
GET_ACCOUNT = PreparedStatement(
    "SELECT CustomerId INTO :x FROM Account WHERE Name = :N"
)
GET_ACCOUNT_2 = PreparedStatement(
    "SELECT CustomerId INTO :x2 FROM Account WHERE Name = :N2"
)
GET_SAVING = PreparedStatement(
    "SELECT Balance INTO :a FROM Saving WHERE CustomerId = :x"
)
GET_SAVING_SFU = PreparedStatement(
    "SELECT Balance INTO :a FROM Saving WHERE CustomerId = :x FOR UPDATE"
)
GET_CHECKING = PreparedStatement(
    "SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x"
)
GET_CHECKING_SFU = PreparedStatement(
    "SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x FOR UPDATE"
)
ADD_SAVING = PreparedStatement(
    "UPDATE Saving SET Balance = Balance + :V WHERE CustomerId = :x"
)
ADD_CHECKING = PreparedStatement(
    "UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x"
)
DEBIT_CHECKING = PreparedStatement(
    "UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :x"
)
DEBIT_CHECKING_PENALTY = PreparedStatement(
    "UPDATE Checking SET Balance = Balance - (:V + 1) WHERE CustomerId = :x"
)
ZERO_SAVING = PreparedStatement(
    "UPDATE Saving SET Balance = 0 WHERE CustomerId = :x"
)
ZERO_CHECKING = PreparedStatement(
    "UPDATE Checking SET Balance = 0 WHERE CustomerId = :x"
)
IDENTITY_SAVING = PreparedStatement(
    "UPDATE Saving SET Balance = Balance WHERE CustomerId = :x"
)
IDENTITY_CHECKING = PreparedStatement(
    "UPDATE Checking SET Balance = Balance WHERE CustomerId = :x"
)
TOUCH_CONFLICT = PreparedStatement(
    "UPDATE Conflict SET Value = Value + 1 WHERE Id = :x",
    kind="materialize-update",
)

_IDENTITY = {SAVING: IDENTITY_SAVING, CHECKING: IDENTITY_CHECKING}

ProgramBody = Callable[[Session, Mapping[str, object]], object]

#: The halves a cross-shard Amalgamate is run as, one per customer's shard.
AMALGAMATE_DEBIT = "Amalgamate/debit"
AMALGAMATE_CREDIT = "Amalgamate/credit"

#: program -> the customer variables it resolves.
_RESOLVES = {program: ("x",) for program in names.PROGRAM_NAMES}
_RESOLVES[names.AMALGAMATE] = ("x1", "x2")


class SmallBankTransactions:
    """The five programs, optionally rewritten by strategy modifications."""

    def __init__(self, modifications: Iterable[Modification] = ()) -> None:
        self.modifications = tuple(modifications)
        #: program -> the statements the strategy adds to it, in the order
        #: of the modifications, each with the customer variable it binds
        #: ``:x`` to (one the program does not resolve binds nothing).
        #: Decided here, so a program the strategy leaves alone loops over
        #: an empty tuple.
        self._extras: "dict[str, tuple[tuple[PreparedStatement, str], ...]]" = (
            dict.fromkeys(names.PROGRAM_NAMES, ())
        )
        # program -> sfu'd reads.
        self._sfu: dict[str, set[tuple[str, str]]] = {}
        for mod in self.modifications:
            if mod.kind == "materialize":
                if mod.key is None:
                    raise ValueError(
                        "SmallBank materialization is keyed per customer; "
                        f"got a constant-row modification for {mod.program}"
                    )
                if mod.key in _RESOLVES.get(mod.program, ()):
                    self._extras[mod.program] += ((TOUCH_CONFLICT, mod.key),)
            elif mod.kind == "promote-upd":
                if (mod.key or "x") in _RESOLVES.get(mod.program, ()):
                    self._extras[mod.program] += (
                        (_IDENTITY[mod.table], mod.key or "x"),
                    )
            elif mod.kind == "promote-sfu":
                self._sfu.setdefault(mod.program, set()).add(
                    (mod.table, mod.key or "x")
                )
            else:
                raise ValueError(f"unknown modification kind {mod.kind!r}")
        #: program -> its (Saving, Checking) reads, FOR UPDATE where promoted.
        sfu = lambda program, table: (table, "x") in self._sfu.get(program, ())
        self._reads = {
            program: (
                GET_SAVING_SFU if sfu(program, SAVING) else GET_SAVING,
                GET_CHECKING_SFU if sfu(program, CHECKING) else GET_CHECKING,
            )
            for program in names.PROGRAM_NAMES
        }
        self._bodies: dict[str, ProgramBody] = {
            names.BALANCE: self.balance,
            names.DEPOSIT_CHECKING: self.deposit_checking,
            names.TRANSACT_SAVING: self.transact_saving,
            names.AMALGAMATE: self.amalgamate,
            names.WRITE_CHECK: self.write_check,
            AMALGAMATE_DEBIT: self.amalgamate_debit,
            AMALGAMATE_CREDIT: self.amalgamate_credit,
        }

    @cached_property
    def _calls(self) -> "dict[str, PreparedStatement]":
        """program -> the one statement :meth:`run` executes on a session
        that ships whole programs to its server (built on first use: the
        in-process backends never need it)."""
        mods = [
            [mod.program, mod.kind, mod.table, mod.key]
            for mod in self.modifications
        ]

        def remote(name: str, route: "tuple[str, ...]", parts=()) -> Program:
            spec = json.dumps({"program": name, "mods": mods})
            return Program("smallbank", spec, route, parts)

        remotes = {
            program: remote(program, ("N",)) for program in names.PROGRAM_NAMES
        }
        remotes[names.AMALGAMATE] = remote(
            names.AMALGAMATE,
            ("N1", "N2"),
            (
                remote(AMALGAMATE_DEBIT, ("N1",)),
                remote(AMALGAMATE_CREDIT, ("N2",)),
            ),
        )
        return {
            program: PreparedStatement(Call(remote_program, program))
            for program, remote_program in remotes.items()
        }

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _resolve_customer(
        self, session: Session, params: dict, name_var: str = "N"
    ) -> int:
        """Account lookup; rolls back when the name is unknown."""
        if name_var == "N":
            GET_ACCOUNT.execute(session, params)
            cid = params.get("x")
        else:
            GET_ACCOUNT_2.execute(session, params)
            cid = params.get("x2")
        if cid is None:
            session.rollback()
            raise ApplicationRollback(f"unknown customer {params.get(name_var)!r}")
        return cid

    # ------------------------------------------------------------------
    # The five programs
    # ------------------------------------------------------------------
    def balance(self, session: Session, args: Mapping[str, object]) -> float:
        """Bal(N): return savings + checking for the customer."""
        params = {"N": args["N"]}
        x = self._resolve_customer(session, params)
        for statement, _ in self._extras[names.BALANCE]:
            statement.execute(session, {"x": x})
        for read in self._reads[names.BALANCE]:
            read.execute(session, params)
        return float(params["a"]) + float(params["b"])

    def deposit_checking(
        self, session: Session, args: Mapping[str, object]
    ) -> None:
        """DC(N, V): checking += V; rolls back for negative V."""
        value = float(args["V"])
        if value < 0:
            session.rollback()
            raise ApplicationRollback("negative deposit")
        params = {"N": args["N"], "V": value}
        x = self._resolve_customer(session, params)
        for statement, _ in self._extras[names.DEPOSIT_CHECKING]:
            statement.execute(session, {"x": x})
        ADD_CHECKING.execute(session, params)

    def transact_saving(
        self, session: Session, args: Mapping[str, object]
    ) -> None:
        """TS(N, V): saving += V; rolls back if the result would be < 0."""
        value = float(args["V"])
        params = {"N": args["N"], "V": value}
        x = self._resolve_customer(session, params)
        for statement, _ in self._extras[names.TRANSACT_SAVING]:
            statement.execute(session, {"x": x})
        self._reads[names.TRANSACT_SAVING][0].execute(session, params)
        if float(params["a"]) + value < 0:
            session.rollback()
            raise ApplicationRollback("savings would go negative")
        ADD_SAVING.execute(session, params)

    def amalgamate(self, session: Session, args: Mapping[str, object]) -> None:
        """Amg(N1, N2): zero customer 1's accounts, credit customer 2."""
        params: dict = {"N": args["N1"], "N2": args["N2"]}
        x1 = self._resolve_customer(session, params, "N")
        x2 = self._resolve_customer(session, params, "N2")
        for statement, key in self._extras[names.AMALGAMATE]:
            statement.execute(session, {"x": x1 if key == "x1" else x2})
        for read in self._reads[names.AMALGAMATE]:
            read.execute(session, params)
        total = float(params["a"]) + float(params["b"])
        ZERO_SAVING.execute(session, {"x": x1})
        ZERO_CHECKING.execute(session, {"x": x1})
        ADD_CHECKING.execute(session, {"x": x2, "V": total})

    def amalgamate_debit(
        self, session: Session, args: Mapping[str, object]
    ) -> float:
        """Customer 1's half of a cross-shard Amg: empty both accounts
        and return what they held."""
        params: dict = {"N": args["N1"]}
        x1 = self._resolve_customer(session, params)
        for statement, key in self._extras[names.AMALGAMATE]:
            if key == "x1":
                statement.execute(session, {"x": x1})
        for read in self._reads[names.AMALGAMATE]:
            read.execute(session, params)
        total = float(params["a"]) + float(params["b"])
        ZERO_SAVING.execute(session, {"x": x1})
        ZERO_CHECKING.execute(session, {"x": x1})
        return total

    def amalgamate_credit(
        self, session: Session, args: Mapping[str, object]
    ) -> None:
        """Customer 2's half: credit ``carry``, the debit half's total."""
        params: dict = {"N2": args["N2"]}
        x2 = self._resolve_customer(session, params, "N2")
        for statement, key in self._extras[names.AMALGAMATE]:
            if key == "x2":
                statement.execute(session, {"x": x2})
        ADD_CHECKING.execute(session, {"x": x2, "V": float(args["carry"])})

    def write_check(self, session: Session, args: Mapping[str, object]) -> bool:
        """WC(N, V): debit checking by V, or V+1 when overdrawing.

        Returns True when the overdraft penalty was charged (Program 1).
        """
        value = float(args["V"])
        params = {"N": args["N"], "V": value}
        x = self._resolve_customer(session, params)
        for statement, _ in self._extras[names.WRITE_CHECK]:
            statement.execute(session, {"x": x})
        for read in self._reads[names.WRITE_CHECK]:
            read.execute(session, params)
        total = float(params["a"]) + float(params["b"])
        if total < value:
            DEBIT_CHECKING_PENALTY.execute(session, params)
            return True
        DEBIT_CHECKING.execute(session, params)
        return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def body(self, program: str) -> ProgramBody:
        try:
            return self._bodies[program]
        except KeyError:
            raise ValueError(f"unknown SmallBank program {program!r}") from None

    def run(
        self,
        session: Session,
        program: str,
        args: Mapping[str, object],
        *,
        commit: bool = True,
    ) -> object:
        """Execute one program inside a fresh transaction on ``session``.

        A session that can run whole programs itself (``call_program``:
        the ``tcp://`` and ``cluster://`` sessions) gets the committing
        transaction as one ``CALL`` statement; everything else —
        ``local://``, the simulator, ``commit=False`` — runs the body
        bound at construction, statement by statement.
        """
        if commit and getattr(session, "call_program", None) is not None:
            return self._calls[program].execute(session, args)
        body = self._bodies.get(program) or self.body(program)  # raises if unknown
        session.begin(program)
        result = body(session, args)
        if commit:
            session.commit()
        return result


def _build_program(spec: Mapping[str, object]) -> ProgramBody:
    """What a server makes of the specs :class:`SmallBankTransactions`
    puts in its ``CALL`` statements."""
    mods = [Modification(*mod) for mod in spec["mods"]]
    return SmallBankTransactions(mods).body(str(spec["program"]))


PROGRAM_FACTORIES["smallbank"] = _build_program
