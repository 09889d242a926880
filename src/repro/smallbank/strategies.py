"""The nine SmallBank configurations evaluated in the paper.

Each :class:`Strategy` couples

* a *spec-level* transform (from :mod:`repro.core.modify`) that rewrites the
  symbolic program set — from which the SDGs of Figures 2/3 and the rows of
  Table I are **derived**, and
* the matching *executable* rewrite: the list of
  :class:`~repro.core.specs.Modification` records is fed into
  :class:`~repro.smallbank.transactions.SmallBankTransactions`, which adds
  the corresponding SQL statements.

Strategies (paper Section III-D/E):

==================  ===========================================================
``base-si``         unmodified SmallBank (non-serializable executions possible)
``materialize-wt``  Conflict-table update in WriteCheck and TransactSaving
``promote-wt-upd``  identity write on Saving in WriteCheck
``promote-wt-sfu``  WriteCheck's Saving read becomes SELECT FOR UPDATE
``materialize-bw``  Conflict-table update in Balance and WriteCheck
``promote-bw-upd``  identity write on Checking in Balance
``promote-bw-sfu``  Balance's Checking read becomes SELECT FOR UPDATE
``materialize-all`` Conflict update in every program (2 rows in Amalgamate)
``promote-all``     identity writes on all vulnerable reads (2 in Balance)
==================  ===========================================================

The ``-sfu`` strategies guarantee serializability only on the commercial
platform (where SFU acts as a concurrency-control write);
:attr:`Strategy.serializable_on_postgres` records that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from repro.core import StaticDependencyGraph, build_sdg
from repro.core.modify import (
    Modification,
    materialize_all,
    materialize_edge,
    promote_all,
    promote_edge,
    tables_updated_by,
)
from repro.core.specs import ProgramSet
from repro.smallbank.programs import (
    BALANCE,
    TRANSACT_SAVING,
    WRITE_CHECK,
    smallbank_specs,
)
from repro.smallbank.transactions import SmallBankTransactions

Transform = Callable[[ProgramSet], tuple[ProgramSet, list[Modification]]]


@dataclass(frozen=True)
class Strategy:
    """One way of (not) ensuring serializable SmallBank executions."""

    key: str
    label: str  # the name used in the paper's figures
    transform: Optional[Transform]
    requires_cc_sfu: bool = False
    """True when correctness depends on commercial SFU semantics."""

    # ------------------------------------------------------------------
    def apply(
        self, base: Optional[ProgramSet] = None
    ) -> tuple[ProgramSet, tuple[Modification, ...]]:
        """The transformed spec set and the modification records."""
        specs = base if base is not None else smallbank_specs()
        if self.transform is None:
            return specs, ()
        transformed, mods = self.transform(specs)
        return transformed, tuple(mods)

    def specs(self) -> ProgramSet:
        return self.apply()[0]

    def modifications(self) -> tuple[Modification, ...]:
        return self._modifications

    @cached_property
    def _modifications(self) -> tuple[Modification, ...]:
        # Derived once per strategy: the rewrite costs milliseconds and
        # the records are frozen, so every run may share them.
        return self.apply()[1]

    def transactions(self) -> SmallBankTransactions:
        """Executable programs with this strategy's statements injected."""
        return SmallBankTransactions(self.modifications())

    def sdg(self, *, sfu_is_write: bool = True) -> StaticDependencyGraph:
        return build_sdg(self.specs(), sfu_is_write=sfu_is_write)

    # ------------------------------------------------------------------
    @property
    def is_baseline(self) -> bool:
        return self.transform is None

    def certifies(self, verdicts) -> bool:
        """Whether a run's certificate (anything with ``serializable`` and
        ``snapshot_isolated``) holds what this strategy promises: SI
        always, serializability too unless this is the plain-SI baseline."""
        return verdicts.snapshot_isolated and (
            verdicts.serializable or self.is_baseline
        )

    @property
    def serializable_on_postgres(self) -> bool:
        """Does the strategy guarantee serializability on PostgreSQL?

        Baseline SI does not; SFU promotions do not (lock-only SFU leaves
        the edge vulnerable); everything else does.
        """
        if self.is_baseline:
            return False
        return self.sdg(sfu_is_write=False).is_si_serializable()

    @property
    def serializable_on_commercial(self) -> bool:
        if self.is_baseline:
            return False
        return self.sdg(sfu_is_write=True).is_si_serializable()

    def table_one_row(self) -> dict[str, tuple[str, ...]]:
        """This strategy's row of the paper's Table I: program -> tables
        that gained an update (derived from the spec transform)."""
        base = smallbank_specs()
        transformed, _ = self.apply(base)
        return tables_updated_by(base, transformed)


def _edge_wt(via: str) -> Transform:
    if via == "materialize":
        return lambda specs: materialize_edge(specs, WRITE_CHECK, TRANSACT_SAVING)
    return lambda specs: promote_edge(
        specs, WRITE_CHECK, TRANSACT_SAVING, via=via
    )


def _edge_bw(via: str) -> Transform:
    if via == "materialize":
        return lambda specs: materialize_edge(specs, BALANCE, WRITE_CHECK)
    return lambda specs: promote_edge(specs, BALANCE, WRITE_CHECK, via=via)


BASE_SI = Strategy("base-si", "SI", None)
MATERIALIZE_WT = Strategy("materialize-wt", "MaterializeWT", _edge_wt("materialize"))
PROMOTE_WT_UPD = Strategy("promote-wt-upd", "PromoteWT-upd", _edge_wt("update"))
PROMOTE_WT_SFU = Strategy(
    "promote-wt-sfu", "PromoteWT-sfu", _edge_wt("sfu"), requires_cc_sfu=True
)
MATERIALIZE_BW = Strategy("materialize-bw", "MaterializeBW", _edge_bw("materialize"))
PROMOTE_BW_UPD = Strategy("promote-bw-upd", "PromoteBW-upd", _edge_bw("update"))
PROMOTE_BW_SFU = Strategy(
    "promote-bw-sfu", "PromoteBW-sfu", _edge_bw("sfu"), requires_cc_sfu=True
)
MATERIALIZE_ALL = Strategy(
    "materialize-all", "MaterializeALL", lambda specs: materialize_all(specs)
)
PROMOTE_ALL = Strategy(
    "promote-all", "PromoteALL", lambda specs: promote_all(specs, via="update")
)

ALL_STRATEGIES: tuple[Strategy, ...] = (
    BASE_SI,
    MATERIALIZE_WT,
    PROMOTE_WT_UPD,
    PROMOTE_WT_SFU,
    MATERIALIZE_BW,
    PROMOTE_BW_UPD,
    PROMOTE_BW_SFU,
    MATERIALIZE_ALL,
    PROMOTE_ALL,
)

STRATEGIES_BY_KEY = {s.key: s for s in ALL_STRATEGIES}

#: The subsets shown in each figure of the paper.
POSTGRES_STRATEGIES = tuple(
    s for s in ALL_STRATEGIES if not s.requires_cc_sfu
)


def get_strategy(key: str) -> Strategy:
    try:
        return STRATEGIES_BY_KEY[key]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES_BY_KEY))
        raise KeyError(f"unknown strategy {key!r}; known: {known}") from None
