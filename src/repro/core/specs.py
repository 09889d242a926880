"""Symbolic transaction-program specifications.

The Static Dependency Graph theory of Fekete et al. (TODS 2005) reasons
about *programs*, not executions: each program is summarized by the items
it may read and write, symbolically parameterized.  A
:class:`ProgramSpec` captures that summary:

* ``params`` — the row-identity parameters (e.g. the customer id ``x`` that
  a SmallBank program derives from its name parameter ``N``);
* ``accesses`` — declarations like "reads ``Saving[x]``" or "writes
  ``Checking[x]``".  An access can also target a *constant* row shared by
  every instance of every program (``key_const``), which models the
  "simplest approach" single-row materialization the paper mentions.

Assumption (standard for this analysis, and true of SmallBank): distinct
parameters of a *single* program instance bind distinct rows — e.g.
``Amalgamate(N1, N2)`` is called with two different customers.  Parameters
of *different* instances may coincide arbitrarily; the conflict analysis
enumerates those identification scenarios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.errors import SpecError


class AccessKind(enum.Enum):
    READ = "r"
    WRITE = "w"
    CC_WRITE = "cw"
    """A commercial-style ``SELECT FOR UPDATE``: participates in write-write
    conflict detection, but writes no data (and forces no WAL flush)."""

    @property
    def is_writeish(self) -> bool:
        """Counts as a write for conflict/vulnerability purposes."""
        return self in (AccessKind.WRITE, AccessKind.CC_WRITE)


@dataclass(frozen=True)
class Access:
    """One symbolic item access of a program.

    Exactly one of ``key_param`` (row chosen by a parameter) or
    ``key_const`` (a fixed row, same for all instances) must be set.
    """

    kind: AccessKind
    table: str
    key_param: Optional[str] = None
    key_const: Optional[str] = None
    columns: frozenset[str] = frozenset()
    note: str = ""

    def __post_init__(self) -> None:
        if (self.key_param is None) == (self.key_const is None):
            raise SpecError(
                f"access on {self.table!r} needs exactly one of "
                "key_param / key_const"
            )

    def describe_key(self) -> str:
        return self.key_param if self.key_param is not None else f"#{self.key_const}"

    def __str__(self) -> str:
        return f"{self.kind.value}({self.table}[{self.describe_key()}])"


def read(table: str, key: str, *columns: str, note: str = "") -> Access:
    """Shorthand: ``read("Saving", "x", "Balance")``."""
    return Access(AccessKind.READ, table, key_param=key,
                  columns=frozenset(columns), note=note)


def write(table: str, key: str, *columns: str, note: str = "") -> Access:
    return Access(AccessKind.WRITE, table, key_param=key,
                  columns=frozenset(columns), note=note)


def cc_write(table: str, key: str, *columns: str, note: str = "") -> Access:
    return Access(AccessKind.CC_WRITE, table, key_param=key,
                  columns=frozenset(columns), note=note)


def read_const(table: str, const: str, *columns: str, note: str = "") -> Access:
    return Access(AccessKind.READ, table, key_const=const,
                  columns=frozenset(columns), note=note)


def write_const(table: str, const: str, *columns: str, note: str = "") -> Access:
    return Access(AccessKind.WRITE, table, key_const=const,
                  columns=frozenset(columns), note=note)


@dataclass(frozen=True)
class ProgramSpec:
    """Symbolic read/write summary of one transaction program."""

    name: str
    params: tuple[str, ...]
    accesses: tuple[Access, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise SpecError(f"duplicate parameter in program {self.name!r}")
        for access in self.accesses:
            if access.key_param is not None and access.key_param not in self.params:
                raise SpecError(
                    f"program {self.name!r}: access {access} references "
                    f"unknown parameter {access.key_param!r}"
                )

    # ------------------------------------------------------------------
    def reads(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.kind is AccessKind.READ)

    def writes(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.kind is AccessKind.WRITE)

    def writeish(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.kind.is_writeish)

    @property
    def is_read_only(self) -> bool:
        """No true writes (CC writes don't count: they flush nothing)."""
        return not self.writes()

    @property
    def is_update_program(self) -> bool:
        return bool(self.writes())

    def tables_written(self) -> frozenset[str]:
        return frozenset(a.table for a in self.writes())

    def with_access(self, *extra: Access, suffix: str = "") -> "ProgramSpec":
        """A copy with additional accesses (used by the strategy transforms).

        Duplicate declarations are dropped so that applying a strategy twice
        is idempotent.
        """
        merged = list(self.accesses)
        for access in extra:
            if access not in merged:
                merged.append(access)
        name = self.name + suffix if suffix else self.name
        return replace(self, name=name, accesses=tuple(merged))

    def replace_access(self, old: Access, new: Access) -> "ProgramSpec":
        """A copy with ``old`` swapped for ``new`` (promotion via SFU)."""
        if old not in self.accesses:
            raise SpecError(
                f"program {self.name!r} has no access {old} to replace"
            )
        accesses = tuple(new if a == old else a for a in self.accesses)
        return replace(self, accesses=accesses)

    def __str__(self) -> str:
        args = ", ".join(self.params)
        body = " ".join(str(a) for a in self.accesses)
        return f"{self.name}({args}): {body}"


class ProgramSet:
    """A named collection of program specs (one application mix)."""

    def __init__(self, programs: Iterable[ProgramSpec], name: str = "mix") -> None:
        self.name = name
        self._programs: dict[str, ProgramSpec] = {}
        for program in programs:
            if program.name in self._programs:
                raise SpecError(f"duplicate program name {program.name!r}")
            self._programs[program.name] = program

    def __iter__(self):
        return iter(self._programs.values())

    def __len__(self) -> int:
        return len(self._programs)

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def __getitem__(self, name: str) -> ProgramSpec:
        try:
            return self._programs[name]
        except KeyError:
            raise SpecError(f"unknown program {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._programs)

    def replace(self, program: ProgramSpec) -> "ProgramSet":
        """A new set with ``program`` substituted by name."""
        if program.name not in self._programs:
            raise SpecError(f"unknown program {program.name!r}")
        updated = dict(self._programs)
        updated[program.name] = program
        return ProgramSet(updated.values(), name=self.name)


@dataclass(frozen=True)
class Modification:
    """One strategy-introduced access, for reporting (Table I).

    Produced by the rewrites of :mod:`repro.core.modify`; lives here so
    that what executes the records need not import the rewriter.
    """

    program: str
    kind: str  # "materialize" | "promote-upd" | "promote-sfu"
    table: str
    key: Optional[str]  # parameter name; None for a constant row

    def describe(self) -> str:
        key = self.key if self.key is not None else "#shared"
        return f"{self.program}: {self.kind} on {self.table}[{key}]"
