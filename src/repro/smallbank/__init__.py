"""The SmallBank benchmark: schema, programs, and modification strategies.

Quick use::

    import repro
    from repro.engine import EngineConfig
    from repro.smallbank import build_database, get_strategy

    strategy = get_strategy("promote-wt-upd")
    db = build_database(EngineConfig.postgres())
    txns = strategy.transactions()
    session = repro.connect("local://", database=db).session()
    total = txns.run(session, "Balance", {"N": "cust0000001"})
"""

from repro import _lazy_exports

#: Re-exports, resolved on first use (PEP 562): importing one submodule
#: does not pay for the others.
_EXPORTS = {
    "AMALGAMATE": "repro.smallbank.programs",
    "BALANCE": "repro.smallbank.programs",
    "DEPOSIT_CHECKING": "repro.smallbank.programs",
    "PROGRAM_NAMES": "repro.smallbank.programs",
    "SHORT_NAMES": "repro.smallbank.programs",
    "TRANSACT_SAVING": "repro.smallbank.programs",
    "WRITE_CHECK": "repro.smallbank.programs",
    "smallbank_specs": "repro.smallbank.programs",
    "ACCOUNT": "repro.smallbank.schema",
    "CHECKING": "repro.smallbank.schema",
    "CONFLICT": "repro.smallbank.schema",
    "PAPER_CUSTOMERS": "repro.smallbank.schema",
    "PAPER_HOTSPOT": "repro.smallbank.schema",
    "PAPER_HOTSPOT_HIGH_CONTENTION": "repro.smallbank.schema",
    "PopulationConfig": "repro.smallbank.schema",
    "SAVING": "repro.smallbank.schema",
    "build_database": "repro.smallbank.schema",
    "customer_name": "repro.smallbank.schema",
    "smallbank_schemas": "repro.smallbank.schema",
    "total_money": "repro.smallbank.schema",
    "ALL_STRATEGIES": "repro.smallbank.strategies",
    "BASE_SI": "repro.smallbank.strategies",
    "MATERIALIZE_ALL": "repro.smallbank.strategies",
    "MATERIALIZE_BW": "repro.smallbank.strategies",
    "MATERIALIZE_WT": "repro.smallbank.strategies",
    "POSTGRES_STRATEGIES": "repro.smallbank.strategies",
    "PROMOTE_ALL": "repro.smallbank.strategies",
    "PROMOTE_BW_SFU": "repro.smallbank.strategies",
    "PROMOTE_BW_UPD": "repro.smallbank.strategies",
    "PROMOTE_WT_SFU": "repro.smallbank.strategies",
    "PROMOTE_WT_UPD": "repro.smallbank.strategies",
    "STRATEGIES_BY_KEY": "repro.smallbank.strategies",
    "Strategy": "repro.smallbank.strategies",
    "get_strategy": "repro.smallbank.strategies",
    "SmallBankTransactions": "repro.smallbank.transactions",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
