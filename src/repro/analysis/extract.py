"""Dynamic footprint extraction: derive ProgramSpecs from executions.

Jorwekar et al. (VLDB 2007, reference [15] of the paper) showed that
detecting SI anomalies can be automated by extracting programs' read/write
summaries instead of writing them by hand.  This module does the dynamic
variant for any transaction program runnable against the engine: execute
the program with *sentinel* row identities, observe the recorded footprint
(:attr:`Transaction.reads` / ``writes`` / ``cc_writes``), and map each
touched row back to the parameter that produced it.

For SmallBank this closes the loop between the two halves of the library:
the hand-written specs of :mod:`repro.smallbank.programs` (from which the
SDGs and Table I are derived) are *validated* against what the executable
mini-SQL programs actually touch — for the base mix and for every strategy
variant (``tests/test_extract.py``).

Limitations, by design: extraction sees one control-flow path per run
(run the program once per interesting path and union the results with
:func:`merge_specs` if branches differ in footprint), and it extracts at
row granularity (observed footprints carry no column sets).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.core.specs import Access, AccessKind, ProgramSpec
from repro.engine.engine import Database
from repro.engine.session import Session
from repro.errors import AnalysisError


def extract_spec(
    db: Database,
    name: str,
    body: Callable[[Session], object],
    key_to_param: Mapping[tuple[str, Hashable], str],
    params: tuple[str, ...],
) -> ProgramSpec:
    """Run ``body`` once and turn its footprint into a :class:`ProgramSpec`.

    ``key_to_param`` maps the sentinel rows — ``(table, primary key)`` —
    the program is expected to touch to the spec parameter that selected
    them.  Touching a row outside the mapping is an error: it means the
    sentinel identities were not distinctive enough to attribute.
    """
    session = Session(db)
    session.begin(name)
    body(session)
    txn = session.transaction
    accesses: list[Access] = []

    def param_for(row: tuple[str, Hashable]) -> str:
        try:
            return key_to_param[row]
        except KeyError:
            raise AnalysisError(
                f"program {name!r} touched unattributed row {row!r}; "
                "extend key_to_param or use more distinctive sentinels"
            ) from None

    for row, _version in sorted(txn.reads.items(), key=repr):
        if row in txn.sfu_rows:
            continue  # reported as a CC write below (FOR UPDATE read)
        accesses.append(
            Access(AccessKind.READ, row[0], key_param=param_for(row))
        )
    for row in txn.write_order:
        accesses.append(
            Access(AccessKind.WRITE, row[0], key_param=param_for(row))
        )
    # ``sfu_rows`` is recorded by both engine flavours (``cc_writes`` only
    # under commercial semantics); the spec-level CC_WRITE kind carries the
    # platform question to analysis time via ``sfu_is_write``.
    for row in sorted(txn.sfu_rows, key=repr):
        accesses.append(
            Access(AccessKind.CC_WRITE, row[0], key_param=param_for(row))
        )
    session.rollback()  # leave the scratch database untouched
    return ProgramSpec(name, params, tuple(dict.fromkeys(accesses)))


def merge_specs(first: ProgramSpec, second: ProgramSpec) -> ProgramSpec:
    """Union of two extraction runs (e.g. both branches of an IF)."""
    if first.name != second.name or first.params != second.params:
        raise AnalysisError("can only merge extractions of the same program")
    return first.with_access(*second.accesses)


def footprint_signature(spec: ProgramSpec) -> frozenset[tuple[str, str, str]]:
    """Canonical (kind, table, key) triples — the row-granularity footprint.

    Column sets are ignored (extraction cannot observe them) and reads that
    accompany a write of the same item are dropped, because an extracted
    read-modify-write and a declared plain write describe the same conflict
    behaviour.  Used to compare extracted and hand-written specs.
    """
    writes = {
        (access.table, access.describe_key())
        for access in spec.accesses
        if access.kind.is_writeish
    }
    triples = set()
    for access in spec.accesses:
        key = (access.table, access.describe_key())
        if access.kind is AccessKind.READ and key in writes:
            continue
        triples.add((access.kind.value, access.table, access.describe_key()))
    return frozenset(triples)


# ----------------------------------------------------------------------
# SmallBank-specific convenience
# ----------------------------------------------------------------------


def extract_smallbank_specs(strategy_key: str = "base-si"):
    """Extract all five SmallBank specs from the executable programs.

    Returns a dict ``program name -> extracted ProgramSpec``; WriteCheck is
    run on both sides of its overdraft branch and merged.
    """
    from repro.core.specs import ProgramSet
    from repro.smallbank.schema import (
        ACCOUNT,
        CHECKING,
        CONFLICT,
        SAVING,
        PopulationConfig,
        build_database,
        customer_name,
    )
    from repro.smallbank.strategies import get_strategy

    transactions = get_strategy(strategy_key).transactions()

    def attribution(cid_by_param: dict[str, int]):
        mapping: dict[tuple[str, Hashable], str] = {}
        for param, cid in cid_by_param.items():
            mapping[(ACCOUNT, customer_name(cid))] = param
            for table in (SAVING, CHECKING, CONFLICT):
                mapping[(table, cid)] = param
        return mapping

    def fresh_db():
        return build_database(
            population=PopulationConfig(
                customers=2, min_saving=100.0, max_saving=100.0,
                min_checking=100.0, max_checking=100.0,
            )
        )

    one = {"x": 1}
    two = {"x1": 1, "x2": 2}
    specs: dict[str, ProgramSpec] = {}
    specs["Balance"] = extract_spec(
        fresh_db(), "Balance",
        lambda s: transactions.balance(s, {"N": customer_name(1)}),
        attribution(one), ("x",),
    )
    specs["DepositChecking"] = extract_spec(
        fresh_db(), "DepositChecking",
        lambda s: transactions.deposit_checking(
            s, {"N": customer_name(1), "V": 5.0}
        ),
        attribution(one), ("x",),
    )
    specs["TransactSaving"] = extract_spec(
        fresh_db(), "TransactSaving",
        lambda s: transactions.transact_saving(
            s, {"N": customer_name(1), "V": 5.0}
        ),
        attribution(one), ("x",),
    )
    specs["Amalgamate"] = extract_spec(
        fresh_db(), "Amalgamate",
        lambda s: transactions.amalgamate(
            s, {"N1": customer_name(1), "N2": customer_name(2)}
        ),
        attribution(two), ("x1", "x2"),
    )
    no_penalty = extract_spec(
        fresh_db(), "WriteCheck",
        lambda s: transactions.write_check(
            s, {"N": customer_name(1), "V": 5.0}
        ),
        attribution(one), ("x",),
    )
    penalty = extract_spec(
        fresh_db(), "WriteCheck",
        lambda s: transactions.write_check(
            s, {"N": customer_name(1), "V": 5000.0}
        ),
        attribution(one), ("x",),
    )
    specs["WriteCheck"] = merge_specs(no_penalty, penalty)
    return specs


def extracted_smallbank_program_set(strategy_key: str = "base-si"):
    """The extracted specs as a :class:`~repro.core.specs.ProgramSet`."""
    from repro.core.specs import ProgramSet

    return ProgramSet(
        extract_smallbank_specs(strategy_key).values(),
        name=f"SmallBank[{strategy_key}, extracted]",
    )
