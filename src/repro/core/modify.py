"""Program-modification strategies: materialization and promotion.

These are the techniques of Fekete et al. (TODS 2005) that the paper
evaluates — transformations that remove the vulnerability of a chosen SDG
edge without changing program semantics:

* **Materialization** (:func:`materialize_edge`): both endpoint programs
  get ``UPDATE Conflict SET Value = Value + 1 WHERE Id = :x`` on the
  auxiliary ``Conflict`` table, keyed by the parameter they share in each
  vulnerable scenario, so a write-write conflict arises exactly when the
  read-write conflict would.
* **Promotion** (:func:`promote_edge`): the *source* program gets an
  identity write (``UPDATE t SET col = col``) on each item it reads that
  the target concurrently writes; or, with ``via="sfu"``, its read is
  replaced by ``SELECT ... FOR UPDATE`` (which only de-vulnerates the edge
  on platforms where SFU acts as a concurrency-control write).

:func:`materialize_all` / :func:`promote_all` are the paper's "no SDG
analysis required" variants: they fix *every* vulnerable edge of the graph.

All functions are pure: they return a new
:class:`~repro.core.specs.ProgramSet` plus the list of
:class:`Modification` records (from which Table I of the paper is
derived), leaving the input untouched.
"""

from __future__ import annotations

from typing import Literal, Optional

from repro.core.conflicts import analyze_edge
from repro.core.sdg import StaticDependencyGraph
from repro.core.specs import (  # Modification is re-exported
    Access,
    AccessKind,
    Modification,
    ProgramSet,
    ProgramSpec,
    cc_write,
    write,
    write_const,
)
from repro.errors import SpecError

CONFLICT_TABLE = "Conflict"
CONFLICT_VALUE_COLUMN = "Value"

PromoteVia = Literal["update", "sfu"]


def _require_edge(programs: ProgramSet, source: str, target: str) -> None:
    if source not in programs:
        raise SpecError(f"unknown program {source!r}")
    if target not in programs:
        raise SpecError(f"unknown program {target!r}")


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------


def materialize_edge(
    programs: ProgramSet,
    source: str,
    target: str,
    *,
    sfu_is_write: bool = True,
    conflict_table: str = CONFLICT_TABLE,
) -> tuple[ProgramSet, list[Modification]]:
    """Remove the vulnerability of ``source -> target`` by materializing.

    For every vulnerable scenario, both programs receive a write on the
    ``Conflict`` row keyed by the parameter through which they reach the
    conflicting item, so the write-write conflict arises exactly when the
    read-write conflict does (the paper's refinement over a single fixed
    row).  Conflicts on constant rows materialize on a shared constant row.
    """
    _require_edge(programs, source, target)
    analysis = analyze_edge(
        programs[source], programs[target], sfu_is_write=sfu_is_write
    )
    if not analysis.vulnerable:
        raise SpecError(
            f"edge {source} -> {target} is not vulnerable; nothing to do"
        )
    source_extra: list[Access] = []
    target_extra: list[Access] = []
    modifications: list[Modification] = []
    for scenario in analysis.vulnerable_scenarios:
        for item in scenario.rw:
            if item.const is not None or item.p_key is None or item.q_key is None:
                source_extra.append(
                    write_const(conflict_table, "shared", CONFLICT_VALUE_COLUMN)
                )
                target_extra.append(
                    write_const(conflict_table, "shared", CONFLICT_VALUE_COLUMN)
                )
                modifications.append(
                    Modification(source, "materialize", conflict_table, None)
                )
                modifications.append(
                    Modification(target, "materialize", conflict_table, None)
                )
            else:
                source_extra.append(
                    write(conflict_table, item.p_key, CONFLICT_VALUE_COLUMN)
                )
                target_extra.append(
                    write(conflict_table, item.q_key, CONFLICT_VALUE_COLUMN)
                )
                modifications.append(
                    Modification(source, "materialize", conflict_table, item.p_key)
                )
                modifications.append(
                    Modification(target, "materialize", conflict_table, item.q_key)
                )
    updated = programs.replace(programs[source].with_access(*source_extra))
    if target != source:
        updated = updated.replace(updated[target].with_access(*target_extra))
    else:
        updated = updated.replace(updated[source].with_access(*target_extra))
    return updated, _dedupe(modifications)


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------


def promote_edge(
    programs: ProgramSet,
    source: str,
    target: str,
    *,
    via: PromoteVia = "update",
    sfu_is_write: bool = True,
) -> tuple[ProgramSet, list[Modification]]:
    """Remove the vulnerability of ``source -> target`` by promotion.

    Only the *source* program changes (the paper: "we do not alter Q at
    all").  ``via="update"`` adds an identity write on each vulnerable rw
    item; ``via="sfu"`` replaces the corresponding read with
    ``SELECT ... FOR UPDATE``.

    Promotion requires the rw conflict to be on identifiable items — it
    "does not work for conflicts where one transaction changes the set of
    items returned in a predicate evaluation in another" — so conflicts on
    constant rows are fine but a vulnerable scenario without a parameter
    key on the source side is rejected.
    """
    _require_edge(programs, source, target)
    analysis = analyze_edge(
        programs[source], programs[target], sfu_is_write=sfu_is_write
    )
    if not analysis.vulnerable:
        raise SpecError(
            f"edge {source} -> {target} is not vulnerable; nothing to do"
        )
    spec = programs[source]
    modifications: list[Modification] = []
    for item in analysis.vulnerable_items():
        if item.p_key is None and item.const is None:
            raise SpecError(
                f"cannot promote {source} -> {target}: conflict on "
                f"{item.table} is not keyed by a parameter"
            )
        if via == "update":
            columns = _read_columns(spec, item.table, item.p_key, item.const)
            if item.p_key is not None:
                spec = spec.with_access(
                    Access(
                        AccessKind.WRITE,
                        item.table,
                        key_param=item.p_key,
                        columns=columns,
                        note="identity write (promotion)",
                    )
                )
            else:
                spec = spec.with_access(
                    Access(
                        AccessKind.WRITE,
                        item.table,
                        key_const=item.const,
                        columns=columns,
                        note="identity write (promotion)",
                    )
                )
            modifications.append(
                Modification(source, "promote-upd", item.table, item.p_key)
            )
        elif via == "sfu":
            old = _find_read(spec, item.table, item.p_key, item.const)
            new = Access(
                AccessKind.CC_WRITE,
                old.table,
                key_param=old.key_param,
                key_const=old.key_const,
                columns=old.columns,
                note="select for update (promotion)",
            )
            spec = spec.replace_access(old, new)
            modifications.append(
                Modification(source, "promote-sfu", item.table, item.p_key)
            )
        else:  # pragma: no cover - typing guards this
            raise SpecError(f"unknown promotion method {via!r}")
    return programs.replace(spec), _dedupe(modifications)


def _find_read(
    spec: ProgramSpec, table: str, key: Optional[str], const: Optional[str]
) -> Access:
    for access in spec.accesses:
        if (
            access.kind is AccessKind.READ
            and access.table == table
            and access.key_param == key
            and access.key_const == const
        ):
            return access
    raise SpecError(
        f"program {spec.name!r} has no read on {table}[{key or const}] to promote"
    )


def _read_columns(
    spec: ProgramSpec, table: str, key: Optional[str], const: Optional[str]
) -> frozenset[str]:
    try:
        return _find_read(spec, table, key, const).columns
    except SpecError:
        return frozenset()


# ----------------------------------------------------------------------
# Whole-graph variants
# ----------------------------------------------------------------------


def materialize_all(
    programs: ProgramSet, *, sfu_is_write: bool = True
) -> tuple[ProgramSet, list[Modification]]:
    """Materialize every vulnerable edge (no SDG analysis needed by the DBA).

    All edges are analyzed against the *original* graph, then every fix is
    applied; duplicate additions collapse.
    """
    sdg = StaticDependencyGraph(programs, sfu_is_write=sfu_is_write)
    updated = programs
    modifications: list[Modification] = []
    for source, target in sdg.vulnerable_edges():
        analysis = analyze_edge(
            updated[source], updated[target], sfu_is_write=sfu_is_write
        )
        if not analysis.vulnerable:
            continue  # an earlier materialization already covered this edge
        updated, mods = materialize_edge(
            updated, source, target, sfu_is_write=sfu_is_write
        )
        modifications.extend(mods)
    return updated, _dedupe(modifications)


def promote_all(
    programs: ProgramSet, *, via: PromoteVia = "update", sfu_is_write: bool = True
) -> tuple[ProgramSet, list[Modification]]:
    """Promote every vulnerable edge of the graph, to a fixpoint.

    Unlike materialization (whose ``Conflict`` writes create only
    write-write conflicts), promotion turns readers into writers, which
    can create *new* vulnerable edges from other programs that read the
    promoted items without writing them.  The loop therefore re-analyzes
    after each round until no vulnerable edge remains.  Termination: each
    round strictly grows some program's write footprint, which is bounded
    by the finite set of (program, table, key) triples; SmallBank (and
    most realistic mixes) converge in a single round.
    """
    updated = programs
    modifications: list[Modification] = []
    max_rounds = sum(len(spec.accesses) + 1 for spec in programs) + 1
    for _round in range(max_rounds):
        sdg = StaticDependencyGraph(updated, sfu_is_write=sfu_is_write)
        vulnerable = sdg.vulnerable_edges()
        if not vulnerable:
            return updated, _dedupe(modifications)
        progressed = False
        for source, target in vulnerable:
            analysis = analyze_edge(
                updated[source], updated[target], sfu_is_write=sfu_is_write
            )
            if not analysis.vulnerable:
                continue  # an earlier promotion already covered this edge
            updated, mods = promote_edge(
                updated, source, target, via=via, sfu_is_write=sfu_is_write
            )
            modifications.extend(mods)
            progressed = True
        if not progressed:  # pragma: no cover - safety net
            raise SpecError("promote_all failed to make progress")
    raise SpecError("promote_all did not converge")  # pragma: no cover


def tables_updated_by(
    original: ProgramSet, modified: ProgramSet
) -> dict[str, tuple[str, ...]]:
    """Which tables each program *newly* updates — the rows of Table I.

    Compares write/cc-write footprints program by program; read-only
    programs that became updaters show up with their new tables.
    """
    added: dict[str, tuple[str, ...]] = {}
    for name in original.names:
        before = {
            (a.table, a.key_param, a.key_const, a.kind)
            for a in original[name].writeish()
        }
        after = {
            (a.table, a.key_param, a.key_const, a.kind)
            for a in modified[name].writeish()
        }
        new_tables = sorted({table for table, _k, _c, _kind in after - before})
        if new_tables:
            added[name] = tuple(new_tables)
    return added


def _dedupe(modifications: list[Modification]) -> list[Modification]:
    seen: list[Modification] = []
    for modification in modifications:
        if modification not in seen:
            seen.append(modification)
    return seen
